//! A minimal JSON value type, parser and emitter helpers.
//!
//! The bench harness emits and compares `BENCH_table2.json` files, the
//! kill matrix and the differential sweep write their reports, and the
//! observability layer writes JSONL traces; the toolchain here is
//! offline (no `serde_json`), so this module carries just enough JSON
//! to round-trip those schemas: objects, arrays, strings, numbers,
//! booleans and null, with `f64` numerics.
//!
//! Note on numbers: [`num`] renders non-integral values rounded to
//! three decimals for human-facing bench files.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; exact for the integer counts
    /// the bench schema uses, which stay far below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document (must consume all non-whitespace input).
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs never appear in the bench
                        // schema; map them to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let ch_len = utf8_len(b);
                let chunk = bytes
                    .get(*pos..*pos + ch_len)
                    .ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xf0.. => 4,
        0xe0.. => 3,
        0xc0.. => 2,
        _ => 1,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
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
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Escapes a string for embedding in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` for JSON: integral values without a fraction,
/// everything else with three decimals (milliseconds resolution is
/// what the bench schema stores).
pub fn num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

/// A complete JSON string literal: `s` escaped and double-quoted.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A streaming JSON writer — the single emitter behind the bench
/// report and the observability traces, so string escaping and number
/// formatting cannot drift between them.
///
/// Two layouts: [`Writer::pretty`] (two-space indent, one field per
/// line — the human-diffable bench report) and [`Writer::compact`]
/// (no whitespace — JSONL trace lines). Both parse back with
/// [`Json::parse`].
///
/// The writer is sequence-checked only by construction: callers are
/// expected to call `key` exactly once before each value inside an
/// object, matching `begin_*`/`end_*` pairs. It never panics on
/// misuse; it just emits what it was told.
#[derive(Debug)]
pub struct Writer {
    buf: String,
    pretty: bool,
    /// One entry per open container: whether a separator is due before
    /// the next element.
    needs_comma: Vec<bool>,
    /// The next value follows a key, so it must not emit a separator.
    pending_value: bool,
}

impl Writer {
    /// A writer producing two-space-indented, line-per-field JSON.
    pub fn pretty() -> Writer {
        Writer {
            buf: String::new(),
            pretty: true,
            needs_comma: Vec::new(),
            pending_value: false,
        }
    }

    /// A writer producing whitespace-free JSON.
    pub fn compact() -> Writer {
        Writer {
            buf: String::new(),
            pretty: false,
            needs_comma: Vec::new(),
            pending_value: false,
        }
    }

    /// Separator (comma + newline/indent) before a new element in the
    /// current container, or just the indent for the first element.
    fn sep(&mut self) {
        if let Some(due) = self.needs_comma.last_mut() {
            if *due {
                self.buf.push(',');
            }
            *due = true;
            if self.pretty {
                self.buf.push('\n');
                for _ in 0..self.needs_comma.len() {
                    self.buf.push_str("  ");
                }
            }
        }
    }

    /// Newline + indent before a closing bracket (pretty mode only).
    fn close_pad(&mut self) {
        if self.pretty && self.needs_comma.last() == Some(&true) {
            self.buf.push('\n');
            for _ in 0..self.needs_comma.len().saturating_sub(1) {
                self.buf.push_str("  ");
            }
        }
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, k: &str) -> &mut Writer {
        self.sep();
        self.buf.push_str(&quote(k));
        self.buf.push(':');
        if self.pretty {
            self.buf.push(' ');
        }
        // The value directly follows the key: suppress its separator.
        self.pending_value = true;
        self
    }

    /// Writes a pre-rendered JSON value (`raw` must be valid JSON).
    pub fn raw(&mut self, raw: &str) -> &mut Writer {
        self.value_prefix();
        self.buf.push_str(raw);
        self
    }

    fn value_prefix(&mut self) {
        if self.pending_value {
            self.pending_value = false;
        } else {
            self.sep();
        }
    }

    /// Opens an object (as a value or array element).
    pub fn begin_obj(&mut self) -> &mut Writer {
        self.value_prefix();
        self.buf.push('{');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Writer {
        self.close_pad();
        self.needs_comma.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array (as a value or array element).
    pub fn begin_arr(&mut self) -> &mut Writer {
        self.value_prefix();
        self.buf.push('[');
        self.needs_comma.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Writer {
        self.close_pad();
        self.needs_comma.pop();
        self.buf.push(']');
        self
    }

    /// Writes a string value.
    pub fn str_value(&mut self, s: &str) -> &mut Writer {
        let q = quote(s);
        self.value_prefix();
        self.buf.push_str(&q);
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64_value(&mut self, v: u64) -> &mut Writer {
        self.value_prefix();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes a boolean value.
    pub fn bool_value(&mut self, v: bool) -> &mut Writer {
        self.value_prefix();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes an `f64` value in the bench's 3-decimal [`num`] format.
    pub fn num_value(&mut self, v: f64) -> &mut Writer {
        let n = num(v);
        self.value_prefix();
        self.buf.push_str(&n);
        self
    }

    /// `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Writer {
        self.key(k).str_value(v)
    }

    /// `key` + unsigned integer value.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Writer {
        self.key(k).u64_value(v)
    }

    /// `key` + boolean value.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Writer {
        self.key(k).bool_value(v)
    }

    /// `key` + [`num`]-formatted value.
    pub fn field_num(&mut self, k: &str, v: f64) -> &mut Writer {
        self.key(k).num_value(v)
    }

    /// `key` + pre-rendered JSON value.
    pub fn field_raw(&mut self, k: &str, raw: &str) -> &mut Writer {
        self.key(k).raw(raw)
    }

    /// The finished document (with a trailing newline in pretty mode).
    pub fn finish(mut self) -> String {
        if self.pretty {
            self.buf.push('\n');
        }
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_schema_shapes() {
        let doc = r#"{"v": 1, "rows": [{"p": "BV-Just0", "ms": 12.5, "ok": true},
                      {"p": "a\"b", "ms": 3, "ok": false}], "none": null}"#;
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("v").unwrap().as_f64(), Some(1.0));
        let rows = j.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("p").unwrap().as_str(), Some("BV-Just0"));
        assert_eq!(rows[0].get("ms").unwrap().as_f64(), Some(12.5));
        assert_eq!(rows[1].get("p").unwrap().as_str(), Some("a\"b"));
        assert_eq!(rows[1].get("ok").unwrap(), &Json::Bool(false));
        assert_eq!(j.get("none").unwrap(), &Json::Null);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f — λ";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("k").unwrap().as_str(), Some(nasty));
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn num_formats_integers_exactly() {
        assert_eq!(num(90.0), "90");
        assert_eq!(num(12.3456), "12.346");
        assert_eq!(Json::parse(&num(1e15)).unwrap().as_f64(), Some(1e15));
    }

    #[test]
    fn writer_compact_round_trips() {
        let mut w = Writer::compact();
        w.begin_obj()
            .field_str("name", "bv\"cast")
            .field_u64("n", 3)
            .field_bool("ok", true)
            .key("xs")
            .begin_arr()
            .u64_value(1)
            .u64_value(2)
            .end_arr()
            .key("nested")
            .begin_obj()
            .field_num("ms", 12.3456)
            .end_obj()
            .end_obj();
        let doc = w.finish();
        assert!(!doc.contains('\n'), "{doc}");
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("name").unwrap().as_str(), Some("bv\"cast"));
        assert_eq!(j.get("xs").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            j.get("nested").unwrap().get("ms").unwrap().as_f64(),
            Some(12.346)
        );
    }

    #[test]
    fn writer_pretty_round_trips_and_indents() {
        let mut w = Writer::pretty();
        w.begin_obj()
            .field_u64("schema_version", 1)
            .key("rows")
            .begin_arr()
            .begin_obj()
            .field_str("p", "BV-Just0")
            .end_obj()
            .begin_obj()
            .field_str("p", "BV-Term")
            .end_obj()
            .end_arr()
            .end_obj();
        let doc = w.finish();
        assert!(doc.ends_with("}\n"), "{doc}");
        assert!(doc.contains("\n  \"schema_version\": 1"), "{doc}");
        assert!(doc.contains("\n      \"p\": \"BV-Just0\""), "{doc}");
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("rows").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn writer_empty_containers() {
        let mut w = Writer::pretty();
        w.begin_obj()
            .key("a")
            .begin_arr()
            .end_arr()
            .key("o")
            .begin_obj()
            .end_obj()
            .end_obj();
        let doc = w.finish();
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("a").unwrap().as_array(), Some(&[][..]));
        assert_eq!(j.get("o").unwrap(), &Json::Obj(Vec::new()));
    }
}
