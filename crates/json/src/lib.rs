//! A dependency-free JSON value type, parser, and emitter.
//!
//! The workspace builds offline with zero registry dependencies (see
//! DESIGN.md §5), so there is no serde anywhere. This crate is the one
//! hand-rolled JSON implementation in-tree: the analysis server's
//! line-delimited request/response protocol is built on it, and the
//! benchmark's TCP clients build requests and read responses with it.
//!
//! The parser is a ~150-line recursive descent over the JSON subset the
//! in-tree emitters produce (objects, arrays, strings, finite numbers,
//! booleans, `null`). It rejects duplicate object keys, non-finite
//! numbers, trailing garbage, and arrays and objects nested more than
//! [`MAX_JSON_DEPTH`] levels deep — a corrupted or hostile document
//! fails fast instead of validating by accident or overflowing the
//! stack. It runs in time linear in the input.
//!
//! The emitter ([`Json::render`]) is *canonical*: no insignificant
//! whitespace, object keys in insertion order, and numbers with a zero
//! fractional part rendered as integers. Rendering the same value twice
//! yields byte-identical text, which the server's golden-transcript and
//! shard-invariance tests lean on.

#![warn(missing_docs)]

use std::fmt::Write as _;

/// A parsed (or to-be-emitted) JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; the parser rejects non-finite values.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys rejected).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A string value (constructor shorthand).
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integral number value (constructor shorthand).
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Renders the value as compact canonical JSON: no whitespace,
    /// object keys in insertion order, integral numbers without a
    /// fractional part. The output round-trips through [`parse_json`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Integral values must not pick up a `.0` suffix (or
                // exponent notation) — the protocol emits counters and
                // the golden transcripts diff byte-exactly.
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for inclusion between JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The deepest nesting of arrays and objects [`parse_json`] accepts: a
/// top-level object or array is level 1. The parser recurses once per
/// level, so the cap bounds its stack use; the server's deepest request
/// nests 4 levels (`query` → `queries` → item → `config`).
pub const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_JSON_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses an array or object one nesting level down.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(&format!("bad number `{text}`")))?;
        if !n.is_finite() {
            return Err(self.err(&format!("non-finite number `{text}`")));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let mut code = self.utf16_unit()?;
                            // A high surrogate joins the `\u` low
                            // surrogate right after it; a lone one of
                            // either kind is not a char.
                            if (0xd800..0xdc00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let low = self.utf16_unit()?;
                                if (0xdc00..0xe000).contains(&low) {
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                }
                            }
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unsupported escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape, as a UTF-16 code unit.
    fn utf16_unit(&mut self) -> Result<u32, String> {
        // `from_str_radix` alone would also take a sign (`\u+041`).
        let unit = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses a JSON document (the subset the in-tree emitters produce).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_strings_escapes_and_nesting() {
        let doc =
            parse_json(r#"{"a": ["x\n\"y\"", {"b": -1.5e3}], "c": true, "d": null}"#).unwrap();
        let Some(Json::Arr(items)) = doc.get("a") else {
            panic!()
        };
        assert_eq!(items[0], Json::Str("x\n\"y\"".into()));
        assert_eq!(items[1].get("b"), Some(&Json::Num(-1500.0)));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_duplicate_keys_and_trailing_garbage() {
        assert!(parse_json(r#"{"a": 1, "a": 2}"#).is_err());
        assert!(parse_json(r#"{"a": 1} extra"#).is_err());
        assert!(parse_json(r#"{"a": }"#).is_err());
        assert!(parse_json(r#"{"a": 1"#).is_err());
    }

    #[test]
    fn render_is_compact_and_round_trips() {
        let v = Json::Obj(vec![
            ("type".into(), Json::str("ok")),
            ("count".into(), Json::num(42)),
            (
                "items".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::str("a\"b")]),
            ),
        ]);
        let text = v.render();
        assert_eq!(
            text,
            r#"{"type":"ok","count":42,"items":[true,null,"a\"b"]}"#
        );
        assert_eq!(parse_json(&text).unwrap(), v);
    }

    #[test]
    fn nesting_is_capped_at_max_json_depth() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&nest(MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nest(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        let objects = r#"{"a":"#.repeat(MAX_JSON_DEPTH + 1) + "1" + &"}".repeat(MAX_JSON_DEPTH + 1);
        assert!(parse_json(&objects).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // The parser recurses once per level, so 100,000 unchecked
        // levels would overflow the stack; 2 MiB is a spawned thread's
        // default stack size, and a TCP connection thread's.
        let line = "[".repeat(100_000);
        let worker = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_json(&line))
            .unwrap();
        let err = worker.join().expect("parser thread survives").unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A parse that rescans the rest of the input per character is
        // quadratic and would take hours here. It runs on a thread of
        // its own so that such a regression fails the test instead of
        // hanging it.
        let body = "x".repeat(4 << 20);
        let doc = format!(r#"{{"type":"bogus","pad":"{body}"}}"#);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(parse_json(&doc)).unwrap());
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a 4 MiB string parses within 60 s")
            .unwrap();
        worker.join().unwrap();
        assert_eq!(
            parsed.get("pad").and_then(Json::as_str),
            Some(body.as_str())
        );
    }

    #[test]
    fn strings_with_multibyte_chars_and_escapes_round_trip() {
        let text = "é, Ω, 漢字, 🦀 \" \\ / \n \t \r \u{1} \u{1f} end";
        let v = Json::str(text);
        assert_eq!(parse_json(&v.render()).unwrap(), v);
        // Every escape RFC 8259 allows, beside multi-byte runs: a
        // surrogate pair is one char (Python's `json.dumps` escapes 🦀
        // so), and hex digits may be upper case.
        let doc = r#""a\"b\\c\/d\ne\tf\rg\u00e9h\u6f22🦀\b\f\ud83e\udd80\uD83E\uDD80""#;
        assert_eq!(
            parse_json(doc).unwrap(),
            Json::str("a\"b\\c/d\ne\tf\rgéh漢🦀\u{8}\u{c}🦀🦀")
        );
        let v = parse_json(doc).unwrap();
        assert_eq!(parse_json(&v.render()).unwrap(), v);
        // Lone surrogates (high, low, high before a non-surrogate), a
        // signed or short hex run, an unknown escape, no closing quote.
        for bad in [
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\ud800\u0041""#,
            r#""\ud800\n""#,
            r#""\u+041""#,
            r#""\u12""#,
            r#""\x""#,
            r#""open"#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn render_keeps_integers_integral() {
        assert_eq!(Json::num(0).render(), "0");
        assert_eq!(Json::num(123456789).render(), "123456789");
        assert_eq!(Json::Num(1.5).render(), "1.5");
    }

    #[test]
    fn accessors() {
        let v = parse_json(r#"{"s": "x", "n": 7, "b": false, "a": [1]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }
}
