//! The one JSON codec of the workspace: a small hand-rolled tree with a
//! parser, a compact and a pretty renderer, and typed accessors.
//!
//! Every wire format goes through it: JSONL trace lines
//! ([`Event::json`](crate::Event::json) /
//! [`Event::from_json`](crate::Event::from_json)), `nvp-serve` request
//! and response bodies, and `nvp-lint`'s `--json` artifacts (rendered
//! with [`Json::render_pretty`] and re-read by its tests). Numbers are
//! finite `f64` with shortest-round-trip rendering and an integer fast
//! path ([`Json::num`] turns a non-finite one into `null`), strings use
//! the standard escapes, and nothing outside the JSON the stack actually
//! speaks (no surrogate-pair pedantry beyond `\u` code points). Parsing
//! is linear in the input, nesting is capped at 16 levels and malformed
//! input is an error, never a panic.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (rendering is canonical
    /// for a given construction order).
    Obj(Vec<(String, Json)>),
}

/// Parse failure with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Nesting limit: service payloads are two levels deep and lint
/// certificates eight; anything deeper is hostile or confused.
const MAX_DEPTH: usize = 16;

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(JsonError::new(format!("trailing garbage at byte {pos}")));
        }
        Ok(value)
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders the value with two-space indentation, `": "` after keys,
    /// `[]`/`{}` for empty containers and a trailing newline (the
    /// `nvp-lint --json` artifact layout).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Writes compactly when `indent` is `None`, else pretty-printed at
    /// that nesting depth.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => write_seq(out, indent, ('[', ']'), items, |out, item, inner| {
                item.write(out, inner)
            }),
            Json::Obj(fields) => {
                write_seq(out, indent, ('{', '}'), fields, |out, (k, v), inner| {
                    write_str(k, out);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                })
            }
        }
    }

    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.0e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A finite number, or `null` when `n` is NaN or infinite (an
    /// unbounded WCEC, say).
    pub fn num(n: f64) -> Json {
        if n.is_finite() {
            Json::Num(n)
        } else {
            Json::Null
        }
    }
}

/// Writes a delimited, comma-separated sequence; pretty mode puts each
/// item on its own line one level deeper and closes on the parent's
/// indentation.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|d| d + 1);
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            push_newline(out, d);
        }
        item(out, it, inner);
    }
    if let (Some(d), false) = (indent, items.is_empty()) {
        push_newline(out, d);
    }
    out.push(close);
}

fn push_newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a number: integers without a fractional part (so `-0.0`
/// renders as `0`), everything else shortest-round-trip.
fn write_num(v: f64, out: &mut String) {
    debug_assert!(v.is_finite(), "JSON numbers must be finite");
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn write_str(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::new("nesting too deep"));
    }
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(text, pos, depth),
        Some(b'[') => parse_arr(text, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(text, pos),
        Some(c) => Err(JsonError::new(format!(
            "unexpected byte '{}' at {pos}",
            *c as char
        ))),
        None => Err(JsonError::new("unexpected end of input")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::new(format!("bad literal at byte {pos}")))
    }
}

fn parse_num(text: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let tok = &text[start..*pos];
    let n: f64 = tok
        .parse()
        .map_err(|_| JsonError::new(format!("bad number '{tok}'")))?;
    if !n.is_finite() {
        return Err(JsonError::new(format!("non-finite number '{tok}'")));
    }
    Ok(Json::Num(n))
}

/// Scans one string literal. Runs of plain characters between escapes
/// are copied as one `&str` slice: `"` and `\\` are ASCII, so they always
/// sit on character boundaries of the already-validated input.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(&text[run..*pos]);
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let c = text
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| {
                                JsonError::new(format!("bad \\u escape at byte {pos}"))
                            })?;
                        out.push(c);
                        *pos += 4;
                    }
                    other => {
                        return Err(JsonError::new(format!("bad escape {other:?}")));
                    }
                }
                *pos += 1;
            }
            None => return Err(JsonError::new("unterminated string")),
        }
    }
}

fn parse_obj(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError::new(format!("expected ':' at byte {pos}")));
        }
        *pos += 1;
        let value = parse_value(text, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => {
                return Err(JsonError::new(format!(
                    "expected ',' or '}}' at byte {pos}"
                )))
            }
        }
    }
}

fn parse_arr(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::new(format!("expected ',' or ']' at byte {pos}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let text = r#"{"kernel":"sobel","img":12,"mode":{"fixed":4},"list":[1,2.5,true,null,"x"]}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("kernel").and_then(Json::as_str), Some("sobel"));
        assert_eq!(v.get("img").and_then(Json::as_u64), Some(12));
        assert_eq!(
            v.get("mode")
                .and_then(|m| m.get("fixed"))
                .and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(v.render(), text);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1}x",
            "nul",
            "{\"a\":1e999}",
            "\"unterminated",
            "42 tail",
            "\"\\u+041\"",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::Str("a\"b\\c\nd\u{1}π".to_string());
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        assert_eq!(
            Json::parse(r#""A\t/""#).unwrap(),
            Json::Str("A\t/".to_string())
        );
    }

    #[test]
    fn number_rendering_matches_trace_codec() {
        assert_eq!(Json::Num(4.0).render(), "4");
        assert_eq!(Json::Num(-0.5).render(), "-0.5");
        let x = 0.1 + 0.2;
        match Json::parse(&Json::Num(x).render()).unwrap() {
            Json::Num(back) => assert_eq!(back.to_bits(), x.to_bits()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_array).unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A quadratic scan (re-validating the rest of the input for every
        // character) takes seconds on this body; a linear one milliseconds.
        let payload = "x".repeat(1 << 20);
        let body = format!("{{\"label\":\"{payload}\\n\"}}");
        let started = std::time::Instant::now();
        let v = Json::parse(&body).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            v.get("label").and_then(Json::as_str).map(str::len),
            Some((1 << 20) + 1)
        );
        assert!(elapsed.as_secs_f64() < 1.0, "1 MiB string took {elapsed:?}");
    }
}
