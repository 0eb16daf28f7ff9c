//! A minimal, deterministic JSON writer.
//!
//! The benchmark binaries need machine-readable output with **bitwise
//! reproducibility** for a fixed seed, which rules out anything that
//! iterates hash maps or formats floats platform-dependently. This writer
//! keeps object keys in insertion order and prints `f64` through Rust's
//! shortest round-trip formatting (stable across platforms), so two runs
//! of the same simulation emit byte-identical files.

use std::fmt;

/// A JSON value with ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The JSON `null` literal.
    Null,
    /// A boolean.
    Bool(bool),
    /// Finite floats only; NaN/∞ would not round-trip as JSON.
    Num(f64),
    /// Integers keep full precision instead of going through f64.
    Int(i64),
    /// Unsigned integers (e.g. 64-bit seeds) that may exceed `i64::MAX`.
    UInt(u64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// Keys stay in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// `Some(v)` becomes `to_json(v)`, `None` becomes [`Json::Null`] —
    /// keeps optional report fields (e.g. per-class latency when a class
    /// completed nothing) one-liners at the call site.
    pub fn maybe<T>(value: Option<T>, to_json: impl FnOnce(T) -> Json) -> Json {
        value.map_or(Json::Null, to_json)
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the layout committed as `BENCH_*.json`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON numbers must be finite, got {x}");
                let _ = write!(out, "{x}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parses a JSON document — the inverse of [`Json::pretty`] for
    /// everything this writer can emit. Numbers without a fraction,
    /// exponent, or sign that fit `i64`/`u64` parse as [`Json::Int`] /
    /// [`Json::UInt`]; everything else numeric parses as [`Json::Num`]
    /// through Rust's round-trip float parsing, so
    /// `Json::parse(&doc.pretty())` reproduces `doc` up to the
    /// `Int(1)`-vs-`Num(1.0)` representation of whole numbers (which
    /// print identically). Non-finite tokens (`NaN`, `Infinity`) are
    /// rejected, mirroring the writer's finiteness invariant.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated message on malformed input,
    /// trailing garbage, or arrays and objects nested more than 128
    /// levels deep (the parser recurses once per level, so the cap is
    /// what keeps a hostile document from overflowing the stack).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", byte as char, *pos))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every artifact
/// this crate writes nests under 10 levels.
const MAX_PARSE_DEPTH: usize = 128;

/// Parses one value nested inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, b"null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                pairs.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
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
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        // The writer never emits surrogate pairs (it
                        // escapes only C0 controls), so a lone BMP code
                        // point is the whole story here.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one whole UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let c = rest.chars().next().expect("non-empty rest");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number");
    if text.is_empty() || text == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if !fractional {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        _ => Err(format!("malformed number {text:?} at byte {start}")),
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let doc = Json::obj([
            ("name", Json::Str("serve".into())),
            ("count", Json::Int(3)),
            ("ratio", Json::Num(0.5)),
            ("flags", Json::arr([Json::Bool(true), Json::Null])),
            ("empty", Json::obj([])),
        ]);
        let text = doc.pretty();
        assert!(text.starts_with("{\n  \"name\": \"serve\""));
        assert!(text.contains("\"flags\": [\n    true,\n    null\n  ]"));
        assert!(text.contains("\"empty\": {}"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn output_is_reproducible() {
        let build = || Json::obj([("a", Json::Num(1.0 / 3.0)), ("b", Json::Int(-7))]).pretty();
        assert_eq!(build(), build());
    }

    #[test]
    fn maybe_maps_options() {
        assert_eq!(Json::maybe(Some(2.0), Json::Num), Json::Num(2.0));
        assert_eq!(Json::maybe(None::<f64>, Json::Num), Json::Null);
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(j.pretty(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan() {
        let _ = Json::Num(f64::NAN).pretty();
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let doc = Json::obj([
            ("name", Json::Str("serve \"sweep\"\n".into())),
            ("count", Json::Int(-3)),
            ("seed", Json::UInt(u64::MAX)),
            ("ratio", Json::Num(1.0 / 3.0)),
            ("rate", Json::Num(4.6e-11)),
            ("flags", Json::arr([Json::Bool(true), Json::Null])),
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj([])),
            ("nested", Json::obj([("k", Json::arr([Json::Int(1)]))])),
        ]);
        let parsed = Json::parse(&doc.pretty()).unwrap();
        // Whole-number floats re-parse as integers; nothing here is one,
        // so the round trip is exact — including the second hop.
        assert_eq!(parsed, doc);
        assert_eq!(parsed.pretty(), doc.pretty());
    }

    #[test]
    fn parse_normalizes_whole_floats_to_ints() {
        // `Num(2.0)` prints as `2`, which re-parses as `Int(2)` — the
        // printed bytes are identical either way.
        let doc = Json::arr([Json::Num(2.0)]);
        let parsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(parsed, Json::arr([Json::Int(2)]));
        assert_eq!(parsed.pretty(), doc.pretty());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "NaN",
            "Infinity",
            "[] x",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        // Hostile nesting is an error, not a stack overflow.
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(30_000);
            assert!(
                Json::parse(&deep).is_err(),
                "{open:?} x 30000 should not parse"
            );
        }
        // The cap sits exactly at MAX_PARSE_DEPTH levels.
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nested(MAX_PARSE_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_PARSE_DEPTH + 1)).is_err());
    }

    #[test]
    fn parse_accepts_unicode_and_escapes() {
        let parsed = Json::parse("\"héllo \\u0041\\n\"").unwrap();
        assert_eq!(parsed, Json::Str("héllo A\n".into()));
    }
}
