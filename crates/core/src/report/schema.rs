//! The versioned JSON envelope shared by every CoverMe artifact.
//!
//! Every JSON surface this repository emits — the standalone run report,
//! the campaign report, corpus-store entries, and the `coverme serve`
//! wire protocol — carries a `"schema"` field of the form
//! `"coverme-<kind>-report/<version>"` (or `"coverme-<kind>/<version>"`
//! for non-report artifacts). This module is the single home of:
//!
//! * the [`SchemaId`] registry naming every artifact kind and its
//!   current version;
//! * a positioned, depth-limited JSON parser ([`parse`]) and an
//!   order-preserving value model ([`JsonValue`]) — the repository
//!   vendors no serde, so the wire protocol and the corpus store read
//!   documents through this parser;
//! * two writers over that one value model: a compact one
//!   ([`write_compact`], the wire and corpus format) whose output [`parse`]
//!   round-trips exactly (pinned by property tests in
//!   `tests/schema_properties.rs`), and a pretty one ([`write_pretty`],
//!   the run and campaign report files). Every artifact is built as a
//!   [`JsonValue`] and written by one of them, so all of them escape and
//!   format numbers identically.
//!
//! The envelope contract: [`open_envelope`] parses a document, requires a
//! top-level object with a string `"schema"` field, and splits the label
//! into kind and version so readers can dispatch and reject mismatches
//! with a useful message instead of a missing-key panic.

use std::fmt;

/// Identity of one JSON artifact kind: its schema-label prefix and
/// current version. `label()` renders the exact string emitted in the
/// document's `"schema"` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaId {
    /// Label prefix, e.g. `"coverme-run-report"`.
    pub kind: &'static str,
    /// Current version, bumped on any breaking shape change.
    pub version: u32,
}

impl SchemaId {
    /// The exact `"schema"` field value, e.g. `"coverme-run-report/2"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.kind, self.version)
    }

    /// Whether `label` names this kind at exactly this version.
    pub fn matches(&self, label: &str) -> bool {
        split_label(label) == Some((self.kind.to_string(), self.version))
    }
}

/// The standalone `coverme run` report (see
/// [`TestReport::to_run_json`](crate::TestReport::to_run_json)).
pub const RUN_REPORT: SchemaId = SchemaId {
    kind: "coverme-run-report",
    version: 7,
};

/// The campaign report (see
/// [`CampaignReport::to_json`](crate::CampaignReport::to_json)).
pub const CAMPAIGN_REPORT: SchemaId = SchemaId {
    kind: "coverme-campaign-report",
    version: 12,
};

/// One persisted function entry of the corpus store
/// ([`crate::corpus::CorpusStore`]).
pub const CORPUS_ENTRY: SchemaId = SchemaId {
    kind: "coverme-corpus-entry",
    version: 1,
};

/// The corpus store's metadata/index document.
pub const CORPUS_META: SchemaId = SchemaId {
    kind: "coverme-corpus-meta",
    version: 1,
};

/// The `coverme serve` JSON-lines wire protocol (requests and events).
pub const SERVE_PROTOCOL: SchemaId = SchemaId {
    kind: "coverme-serve",
    version: 1,
};

/// Splits a schema label `"kind/version"` into its parts.
fn split_label(label: &str) -> Option<(String, u32)> {
    let (kind, version) = label.rsplit_once('/')?;
    if kind.is_empty() {
        return None;
    }
    let version: u32 = version.parse().ok()?;
    Some((kind.to_string(), version))
}

/// A parsed JSON document. Object member order is preserved (members are
/// a `Vec`, not a map), so a parse → write round trip reproduces the
/// original document byte for byte modulo whitespace.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64` — integers up to 2^53 round-trip
    /// exactly, which covers every counter this repository emits; values
    /// needing full 64-bit exactness (corpus input bit patterns,
    /// fingerprints) are transported as hex strings instead.
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, members in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up an object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON (the wire format).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }

    /// Renders the value as an indented document (see [`write_pretty`]).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, &mut out);
        out
    }
}

impl From<f64> for JsonValue {
    fn from(value: f64) -> Self {
        JsonValue::Number(value)
    }
}

impl From<usize> for JsonValue {
    fn from(value: usize) -> Self {
        JsonValue::Number(value as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(value: bool) -> Self {
        JsonValue::Bool(value)
    }
}

impl From<&str> for JsonValue {
    fn from(value: &str) -> Self {
        JsonValue::String(value.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(value: String) -> Self {
        JsonValue::String(value)
    }
}

/// One object member, ready to push onto a [`JsonValue::Object`]'s list.
pub fn member(key: &str, value: impl Into<JsonValue>) -> (String, JsonValue) {
    (key.to_string(), value.into())
}

/// A positioned JSON parse error. `line` and `column` are 1-based and
/// point at the offending byte, mirroring the FPIR front end's
/// positioned-diagnostics contract (`frontend_hardening.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: u32,
    /// 1-based column of the offending byte.
    pub column: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth beyond which the parser rejects a document rather than
/// recurse further — a hostile `[[[[…` frame must produce a positioned
/// error, never a stack overflow.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    column: u32,
}

/// Parses a JSON document. The full input must be consumed (trailing
/// non-whitespace is an error); nesting is limited to [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        line: 1,
        column: 1,
    };
    parser.skip_whitespace();
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.pos < parser.bytes.len() {
        return Err(parser.error("trailing data after JSON document"));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            line: self.line,
            column: self.column,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.peek()?;
        self.pos += 1;
        if byte == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(byte)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(found) if found == byte => {
                self.bump();
                Ok(())
            }
            Some(found) => Err(self.error(format!(
                "expected `{}`, found `{}`",
                byte as char,
                printable(found)
            ))),
            None => Err(self.error(format!("expected `{}`, found end of input", byte as char))),
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            None => Err(self.error("expected a value, found end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => {
                Err(self.error(format!("expected a value, found `{}`", printable(other))))
            }
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        for &expected in word.as_bytes() {
            match self.peek() {
                Some(found) if found == expected => {
                    self.bump();
                }
                _ => return Err(self.error(format!("expected `{word}`"))),
            }
        }
        Ok(value)
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'}') => {
                    self.bump();
                    return Ok(JsonValue::Object(members));
                }
                Some(other) => {
                    return Err(self.error(format!(
                        "expected `,` or `}}` in object, found `{}`",
                        printable(other)
                    )))
                }
                None => return Err(self.error("unterminated object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {
                    self.bump();
                    return Ok(JsonValue::Array(items));
                }
                Some(other) => {
                    return Err(self.error(format!(
                        "expected `,` or `]` in array, found `{}`",
                        printable(other)
                    )))
                }
                None => return Err(self.error("unterminated array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    None => return Err(self.error("unterminated escape sequence")),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        // Surrogate pairs: a high surrogate must be
                        // followed by `\uXXXX` with a low surrogate.
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            if self.peek() == Some(b'\\') {
                                self.bump();
                                if self.bump() != Some(b'u') {
                                    return Err(self.error("expected low surrogate escape"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                return Err(self.error("unpaired high surrogate"));
                            }
                        } else if (0xDC00..0xE000).contains(&code) {
                            return Err(self.error("unpaired low surrogate"));
                        } else {
                            char::from_u32(code)
                        };
                        match ch {
                            Some(ch) => out.push(ch),
                            None => return Err(self.error("invalid unicode escape")),
                        }
                    }
                    Some(other) => {
                        return Err(self.error(format!("invalid escape `\\{}`", printable(other))))
                    }
                },
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(byte) => {
                    // Re-assemble UTF-8 multibyte sequences: the input came
                    // from a &str, so continuation bytes are well-formed.
                    if byte < 0x80 {
                        out.push(byte as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(byte);
                        for _ in 1..width {
                            self.bump();
                        }
                        let slice = &self.bytes[start..self.pos];
                        out.push_str(std::str::from_utf8(slice).expect("input is valid UTF-8"));
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.error("invalid unicode escape")),
            };
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        if self.peek() == Some(b'.') {
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok(JsonValue::Number(value)),
            _ => Err(self.error(format!("invalid number `{text}`"))),
        }
    }
}

fn utf8_width(byte: u8) -> usize {
    if byte >= 0xF0 {
        4
    } else if byte >= 0xE0 {
        3
    } else {
        2
    }
}

fn printable(byte: u8) -> String {
    if byte.is_ascii_graphic() || byte == b' ' {
        (byte as char).to_string()
    } else {
        format!("\\x{byte:02x}")
    }
}

/// Renders `value` as compact single-line JSON. [`parse`] round-trips the
/// output exactly.
pub fn write_compact(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Number(n) => out.push_str(&format_number(*n)),
        JsonValue::String(s) => write_escaped(s, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (index, item) in items.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(members) => {
            out.push('{');
            for (index, (key, item)) in members.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                write_escaped(key, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

/// Renders `value` as an indented document followed by a newline: 2-space
/// indentation, one member or element per line, `"key": value`. A
/// container always breaks its line, so an empty one renders as its
/// brackets on two lines. [`parse`] reads it back to `value`.
pub fn write_pretty(value: &JsonValue, out: &mut String) {
    write_pretty_at(value, 0, out);
    out.push('\n');
}

fn write_pretty_at(value: &JsonValue, depth: usize, out: &mut String) {
    let (open, close, entries): (char, char, Vec<(Option<&str>, &JsonValue)>) = match value {
        JsonValue::Array(items) => ('[', ']', items.iter().map(|item| (None, item)).collect()),
        JsonValue::Object(members) => (
            '{',
            '}',
            members
                .iter()
                .map(|(key, item)| (Some(key.as_str()), item))
                .collect(),
        ),
        scalar => return write_compact(scalar, out),
    };
    let indent = "  ".repeat(depth + 1);
    out.push(open);
    for (index, (key, item)) in entries.into_iter().enumerate() {
        out.push_str(if index == 0 { "\n" } else { ",\n" });
        out.push_str(&indent);
        if let Some(key) = key {
            write_escaped(key, out);
            out.push_str(": ");
        }
        write_pretty_at(item, depth + 1, out);
    }
    out.push('\n');
    out.push_str(&indent[2..]);
    out.push(close);
}

/// Renders a number the way every report writer does: non-finite values
/// collapse to `0` (JSON has no NaN/∞), finite ones print via Rust's
/// shortest round-trip `to_string`.
pub fn format_number(value: f64) -> String {
    if value.is_finite() {
        value.to_string()
    } else {
        "0".to_string()
    }
}

/// Appends `text` as a quoted JSON string with the repository's standard
/// escaping: `"` `\` and the C0 control characters (named escapes for
/// `\n` `\r` `\t`, `\u00XX` otherwise).
pub fn write_escaped(text: &str, out: &mut String) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An opened envelope: the schema label split into kind + version, plus
/// the parsed document body.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The full label, e.g. `"coverme-campaign-report/5"`.
    pub schema: String,
    /// The label's kind prefix.
    pub kind: String,
    /// The label's version suffix.
    pub version: u32,
    /// The whole parsed document (including the `"schema"` member).
    pub body: JsonValue,
}

impl Envelope {
    /// Whether this envelope is exactly `id` (kind and version).
    pub fn is(&self, id: SchemaId) -> bool {
        self.kind == id.kind && self.version == id.version
    }

    /// Requires the envelope to be exactly `id`, with a useful message
    /// otherwise (wrong kind vs. wrong version are distinguished).
    pub fn expect(&self, id: SchemaId) -> Result<&JsonValue, String> {
        if self.kind != id.kind {
            return Err(format!(
                "expected a `{}` document, found `{}`",
                id.kind, self.schema
            ));
        }
        if self.version != id.version {
            return Err(format!(
                "unsupported `{}` version {} (this build speaks {})",
                self.kind, self.version, id.version
            ));
        }
        Ok(&self.body)
    }
}

/// Parses `text` and opens its envelope: the document must be an object
/// with a string `"schema"` member of the form `"kind/version"`.
pub fn open_envelope(text: &str) -> Result<Envelope, JsonError> {
    let body = parse(text)?;
    let schema = match body.get("schema").and_then(JsonValue::as_str) {
        Some(label) => label.to_string(),
        None => {
            return Err(JsonError {
                line: 1,
                column: 1,
                message: "document has no string `schema` member".to_string(),
            })
        }
    };
    match split_label(&schema) {
        Some((kind, version)) => Ok(Envelope {
            schema,
            kind,
            version,
            body,
        }),
        None => Err(JsonError {
            line: 1,
            column: 1,
            message: format!("malformed schema label `{schema}` (expected `kind/version`)"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_basic_shapes() {
        let doc = parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": null}, "d": "x\ny"}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(doc.get("d").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("{\n  \"a\": 1,\n  oops\n}").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.column, 3);
        assert!(err.message.contains("expected"));

        let err = parse("").unwrap_err();
        assert_eq!((err.line, err.column), (1, 1));
    }

    #[test]
    fn hostile_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(10_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
    }

    #[test]
    fn compact_writer_round_trips() {
        let doc = parse(r#"{"s":"a\"b\\c\nd","n":[0,1.5,-3],"b":true,"z":null,"o":{}}"#).unwrap();
        let compact = doc.to_compact();
        assert_eq!(parse(&compact).unwrap(), doc);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let doc = parse(r#""😀""#).unwrap();
        assert_eq!(doc.as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn envelope_dispatch() {
        let env = open_envelope(r#"{"schema": "coverme-run-report/7", "evals": 7}"#).unwrap();
        assert!(env.is(RUN_REPORT));
        assert!(env.expect(RUN_REPORT).is_ok());
        assert!(env
            .expect(CAMPAIGN_REPORT)
            .unwrap_err()
            .contains("expected"));
        let old = open_envelope(r#"{"schema": "coverme-run-report/1"}"#).unwrap();
        assert!(old.expect(RUN_REPORT).unwrap_err().contains("version 1"));
        assert!(open_envelope(r#"{"evals": 7}"#).is_err());
        assert!(open_envelope(r#"{"schema": "nope"}"#).is_err());
    }

    #[test]
    fn labels_match_the_emitted_schemas() {
        assert_eq!(RUN_REPORT.label(), "coverme-run-report/7");
        assert_eq!(CAMPAIGN_REPORT.label(), "coverme-campaign-report/12");
        assert!(RUN_REPORT.matches("coverme-run-report/7"));
        assert!(!RUN_REPORT.matches("coverme-run-report/6"));
    }

    #[test]
    fn number_formatting_matches_the_report_writers() {
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(f64::NAN), "0");
        assert_eq!(format_number(f64::INFINITY), "0");
    }
}
