//! The workspace's one JSON codec: a minimal value tree, its pretty and
//! compact renderers, and a recursive-descent parser.
//!
//! Every JSON artifact cmpsim writes — metrics, manifests, Chrome
//! traces, time series, breakdown/vmstat/heatmap views, host profiles,
//! progress and sweep journals, compare diffs, crash dumps — is built
//! as a [`Value`] and rendered once, so one escape rule and one number
//! rule cover them all. The codec is hand-rolled (the build is fully
//! offline, so no serde). Numbers are kept as raw tokens so `u64` seeds
//! and cycles round-trip without floating-point loss.

use std::fmt::Write as _;

/// Minimal JSON value tree. Numbers keep their raw token so `u64`
/// values round-trip exactly (no intermediate `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its raw token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn object() -> Self {
        Value::Obj(Vec::new())
    }

    /// An unsigned integer value.
    pub fn uint(n: u64) -> Self {
        Value::Num(n.to_string())
    }

    /// A floating-point value in its shortest round-trip (`Debug`)
    /// form; `null` when non-finite.
    pub fn float(x: f64) -> Self {
        if x.is_finite() {
            Value::Num(format!("{x:?}"))
        } else {
            Value::Null
        }
    }

    /// A floating-point value in plain decimal (`Display`) form, never
    /// an exponent (`1`, not `1.0`); `null` when non-finite. The token
    /// of metrics gauges and histogram means.
    pub fn decimal(x: f64) -> Self {
        if x.is_finite() {
            Value::Num(format!("{x}"))
        } else {
            Value::Null
        }
    }

    /// A string value.
    pub fn string(s: &str) -> Self {
        Value::Str(s.to_string())
    }

    /// A boolean value.
    pub fn boolean(b: bool) -> Self {
        Value::Bool(b)
    }

    /// Sets `key` on an object (panics on non-objects — builder misuse).
    pub fn set(&mut self, key: &str, val: Value) {
        match self {
            Value::Obj(fields) => fields.push((key.to_string(), val)),
            _ => panic!("set() on a non-object JSON value"),
        }
    }

    /// Looks up `key` on an object.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("field {key:?} requested on a non-object")),
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Value::Num(raw) => raw.parse().map_err(|e| format!("bad integer {raw:?}: {e}")),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Num(raw) => raw.parse().map_err(|e| format!("bad number {raw:?}: {e}")),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, found {other:?}")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {other:?}")),
        }
    }

    /// Renders the value into `out` (pretty-printed, two-space
    /// indentation) — the entry point other exporters reuse.
    pub fn render_to(&self, out: &mut String) {
        self.render(out, 0);
    }

    /// The value as a JSON document: pretty-printed, with a trailing
    /// newline — the form of every artifact file.
    pub fn to_document(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out.push('\n');
        out
    }

    /// Pretty-prints with two-space indentation.
    fn render(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => render_string(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    v.render(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    render_string(out, k);
                    out.push_str(": ");
                    v.render(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }

    /// Renders the value into `out` on a single line (no indentation)
    /// — the form NDJSON journals require, one document per line.
    pub fn render_compact_to(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => render_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_compact_to(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(out, k);
                    out.push(':');
                    v.render_compact_to(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing garbage is an error). Arrays
    /// and objects nest at most 128 levels deep.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Deepest array/object nesting [`Value::parse`] accepts. Far above
/// anything the workspace writes (crash dumps, goldens and baselines are
/// 3–4 levels deep); it stops a hostile document from overflowing the
/// recursive parser's stack.
const MAX_DEPTH: usize = 128;

/// Recursive-descent JSON parser over raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other as char, self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Take the longest run without escapes or the closing quote.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(format!("empty number at byte {start}"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .to_string();
        // Validate the token now so as_u64/as_f64 errors can't hide a
        // malformed file.
        raw.parse::<f64>().map_err(|e| format!("bad number {raw:?}: {e}"))?;
        Ok(Value::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_bounded() {
        let nested = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(Value::parse(&nested(200_000)).is_err());
        let objects = format!("{}{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(Value::parse(&objects).is_err());
    }

    #[test]
    fn float_tokens_and_documents() {
        assert_eq!(Value::float(1.0), Value::Num("1.0".into()));
        assert_eq!(Value::decimal(1.0), Value::Num("1".into()));
        assert_eq!(Value::decimal(1e-7), Value::Num("0.0000001".into()));
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::float(x), Value::Null);
            assert_eq!(Value::decimal(x), Value::Null);
        }
        let mut doc = Value::object();
        doc.set("k\"\\", Value::Arr(vec![]));
        assert_eq!(doc.to_document(), "{\n  \"k\\\"\\\\\": []\n}\n");
        assert_eq!(Value::parse(&doc.to_document()).unwrap(), doc);
    }

    #[test]
    fn parser_handles_escapes_and_arrays() {
        let v = Value::parse(r#"{"a": [1, 2.5, -3], "s": "x\"y\\z\nw", "t": true, "n": null}"#)
            .expect("parse");
        let arr = match v.field("a").unwrap() {
            Value::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64().unwrap(), 1);
        assert_eq!(arr[1].as_f64().unwrap(), 2.5);
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "x\"y\\z\nw");
        assert!(v.field("t").unwrap().as_bool().unwrap());
        assert_eq!(v.field("n").unwrap(), &Value::Null);
    }
}
