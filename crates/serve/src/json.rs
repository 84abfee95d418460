//! A minimal JSON value type with a hand-rolled parser and renderer.
//!
//! The wire protocol is JSON lines, but the workspace is dependency-free
//! by design, so — like the `METRICS.json` renderer in scflow-obs — the
//! service carries its own ~200-line JSON layer instead of serde. Two
//! deliberate restrictions keep it small and the protocol deterministic:
//!
//! * numbers are signed 64-bit integers only (port *values* travel as
//!   hex strings anyway, because a 64-bit value does not survive JSON's
//!   2^53 float-safe integer range),
//! * objects preserve insertion order, so a reply always renders its
//!   keys in the order the server wrote them — which is what lets the
//!   verify script pin golden reply bytes with `cmp`.

use std::fmt::Write as _;

/// A JSON value (integers only; objects keep insertion order).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed 64-bit integer (floats are rejected on parse).
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON spliced verbatim into the output (used to embed
    /// a `MetricsRegistry::to_json_object` document without reparsing).
    Raw(String),
}

impl Json {
    /// Object field lookup (first match).
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

    /// The integer payload, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Renders the value compactly (no whitespace), matching the wire
    /// format: one reply, one line.
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
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => render_str(s, out),
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
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
            Json::Raw(s) => out.push_str(s),
        }
    }
}

/// Renders `s` as a JSON string literal. Runs of bytes that need no
/// escape are copied whole; `"`, `\` and control bytes are escaped.
fn render_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Escaped bytes are ASCII, so `run..i` lies on char boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Builds an object from `(key, value)` pairs in order.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Deepest nesting of arrays and objects that [`parse`] accepts. The
/// protocol's deepest request, a `step_batch` poke object, sits at depth
/// 5; the cap keeps a hostile line from recursing the parser off its
/// thread's stack, which would abort the whole server.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// A short human-readable message pointing at what failed, including
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn eat_word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(w.as_bytes()) {
            self.pos += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_word("true", Json::Bool(true)),
            Some(b'f') => self.eat_word("false", Json::Bool(false)),
            Some(b'n') => self.eat_word("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at offset {}", self.pos)),
        }
    }

    /// Parses a container one level deeper, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_owned())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let digits = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "short \\u escape".to_owned())?;
                            // Four hex digits, no sign.
                            let code = digits.iter().try_fold(0u32, |code, &d| {
                                char::from(d)
                                    .to_digit(16)
                                    .map(|v| (code << 4) | v)
                                    .ok_or_else(|| "bad \\u escape".to_owned())
                            })?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired:
                            // the protocol never emits them.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "surrogate \\u escape".to_owned())?,
                            );
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at offset {start} (the protocol is integer-only)"
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<i64>()
            .map(Json::Num)
            .map_err(|_| format!("number out of i64 range at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let src = r#"{"id":1,"op":"poke","value":"0x2a","deep":[true,null,{"k":-3}]}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.render(), src);
        assert_eq!(v.get("op").unwrap().as_str(), Some("poke"));
        assert_eq!(v.get("id").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let rendered = v.render();
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn rejects_floats_and_trailing() {
        assert!(parse("1.5").is_err());
        assert!(parse("1e3").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn object_order_is_preserved() {
        let v = obj([("z", Json::Num(1)), ("a", Json::Num(2))]);
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn raw_splices_verbatim() {
        let v = obj([("metrics", Json::Raw("{\"x\": 3}".into()))]);
        assert_eq!(v.render(), r#"{"metrics":{"x": 3}}"#);
    }

    /// The char-by-char renderer `render_str` replaced: the reference
    /// its output must match byte for byte.
    fn render_str_by_char(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn render_str_matches_the_char_by_char_renderer() {
        use scflow_testkit::prop::{check, ints, vecs};
        use scflow_testkit::prop_assert_eq;
        // Every control byte, both escaped printables, DEL, plain ASCII
        // and 2-, 3- and 4-byte UTF-8 characters.
        let pool: Vec<char> = (0u8..0x20)
            .map(char::from)
            .chain(['"', '\\', '\u{7f}', ' ', 'a', 'Z', '0', '/', 'é', '€', '😀'])
            .collect();
        let strings = vecs(ints(0..=pool.len() - 1), 0..=48);
        check(
            "render_str matches the char-by-char renderer",
            &strings,
            |picks| {
                let s: String = picks.iter().map(|&i| pool[i]).collect();
                let (mut fast, mut reference) = (String::new(), String::new());
                render_str(&s, &mut fast);
                render_str_by_char(&s, &mut reference);
                prop_assert_eq!(fast, reference);
                prop_assert_eq!(parse(&fast), Ok(Json::Str(s)));
                Ok(())
            },
        );
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {MAX_DEPTH}"
            ))
        );
        // Objects count the same as arrays, and depth is per path: wide
        // documents at the cap are fine.
        let deep_obj = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(parse(&deep_obj).is_ok());
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
        assert!(parse(&format!("[{deep_obj}]")).is_err());
    }

    #[test]
    fn unicode_escapes_take_four_hex_digits_only() {
        assert_eq!(parse(r#""\u0041\u00e9""#), Ok(Json::Str("Aé".into())));
        assert_eq!(parse(r#""\u00C9""#), Ok(Json::Str("É".into())));
        assert_eq!(parse(r#""\u+041""#), Err("bad \\u escape".to_owned()));
        assert_eq!(parse(r#""\u004g""#), Err("bad \\u escape".to_owned()));
        assert_eq!(parse(r#""\u00""#), Err("short \\u escape".to_owned()));
    }
}
