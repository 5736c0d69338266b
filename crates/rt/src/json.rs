//! The workspace's one JSON codec: a value type, a compact writer and a
//! strict parser, with no serde (the workspace builds offline with no
//! external crates).
//!
//! Every machine-readable record goes through it: the `umsc-obs` trace
//! lines, the [`bench`](crate::bench) timer's timing and counter records,
//! and the bench harness's table and figure files. The readers
//! (`umsc trace-report`, `bench_report`, the schema tests) parse with the
//! same module, so writer and reader share one escaper and one grammar.
//!
//! Supports the full JSON value grammar (objects, arrays, strings with
//! `\uXXXX` escapes, numbers, booleans, null). Numbers are stored as
//! `f64`, which is exact for every integer below 2⁵³ (nanosecond counts
//! up to 104 days). Non-finite numbers are written as `null`.
//!
//! ```
//! use umsc_rt::json::{parse, Json};
//! let record = Json::obj([("name", "gpi.solve".into()), ("count", 3u64.into())]);
//! let line = record.to_string_compact();
//! assert_eq!(line, r#"{"count":3,"name":"gpi.solve"}"#);
//! assert_eq!(parse(&line).unwrap(), record);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects use a `BTreeMap`, so serialization is
/// deterministic (keys sorted) — handy for diffable snapshot files.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An object from `(key, value)` pairs; a repeated key keeps its last
    /// value.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact serialization (no whitespace). Round-trips through
    /// [`parse`]; object keys come out sorted.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                // JSON has no NaN or infinity; write those as null rather
                // than emit an unparseable token. A finite `{}` is always a
                // JSON number (`2`, `-0.125`, `1e-7` as `0.0000001`).
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Collects values into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// The one JSON string escaper: quotes, backslashes and control
/// characters.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number token");
    token
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {token:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape")?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        // Surrogates are not paired here — the writer never
                        // emits them; replace rather than reject.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (strings are valid UTF-8 by
                // construction of `&str`).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().expect("non-empty rest");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        map.insert(key, parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_record() {
        let line = r#"{"group":"solver_steps","id":"gemm/512","median_ns":1234567.5,"threads":4}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("group").and_then(Json::as_str), Some("solver_steps"));
        assert_eq!(v.get("median_ns").and_then(Json::as_f64), Some(1_234_567.5));
        assert_eq!(v.get("threads").and_then(Json::as_f64), Some(4.0));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"a":[1,2.5,-3e2,true,false,null],"s":"q\"uo\\teA","o":{"x":0}}"#;
        let v = parse(text).unwrap();
        let rendered = v.to_string_compact();
        assert_eq!(parse(&rendered).unwrap(), v);
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some("q\"uo\\teA"),
            "{rendered}"
        );
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 6);
        assert_eq!(arr[2], Json::Num(-300.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{'single':1}").is_err());
    }

    #[test]
    fn numbers_stay_numeric_and_non_finite_is_null() {
        let v: Json = [2.0, -0.125, -0.0, 1e-7, f64::INFINITY, f64::NAN].into_iter().collect();
        assert_eq!(v.to_string_compact(), "[2,-0.125,-0,0.0000001,null,null]");
        assert_eq!(Json::from(1234u64).to_string_compact(), "1234");
    }

    #[test]
    fn obj_builds_sorted_objects() {
        let v = Json::obj([("z", true.into()), ("a", "q\"uo".into()), ("n", Json::Null)]);
        assert_eq!(v.to_string_compact(), r#"{"a":"q\"uo","n":null,"z":true}"#);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn serialization_is_deterministic_and_escaped() {
        let mut map = BTreeMap::new();
        map.insert("z".to_string(), Json::Num(1.0));
        map.insert("a".to_string(), Json::Str("tab\there".to_string()));
        let s = Json::Obj(map).to_string_compact();
        assert_eq!(s, "{\"a\":\"tab\\u0009here\",\"z\":1}");
    }
}
