//! Hand-rolled deterministic JSON: a writer and a minimal parser.
//!
//! The workspace is hermetic (no registry dependencies), so telemetry
//! serialization and its validation in `scripts/verify.sh` both live
//! here. The writer is deterministic by construction: object members are
//! emitted in a fixed order by the callers, and floats use Rust's
//! shortest-round-trip `Display`, which is identical on every platform.

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Appends a JSON number to `out`; non-finite values become `null`.
pub fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // Shortest round-trip formatting; deterministic across platforms.
        out.push_str(&format!("{v}"));
        // `Display` prints integral floats without a fractional part or
        // exponent ("3"), which is still a valid JSON number.
    } else {
        out.push_str("null");
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so a cap keeps a hostile document from
/// overflowing the stack; no document this workspace writes comes close.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed). A
/// document nested deeper than [`MAX_DEPTH`] is an `Err`.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser { src: s, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`.
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other.map(|b| b as char), self.pos)),
        }
    }

    /// Parses one array or object with `container`, one level deeper.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated or split \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar; a position off a char
                    // boundary is an error, not undefined behaviour.
                    let c = self
                        .src
                        .get(self.pos..)
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| format!("not on a char boundary at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = self.src.get(start..self.pos).ok_or("bad number")?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_escapes_strings() {
        let mut out = String::new();
        write_str("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn writes_floats_deterministically() {
        for (v, want) in [(1.5, "1.5"), (3.0, "3"), (0.1, "0.1"), (f64::NAN, "null")] {
            let mut out = String::new();
            write_f64(v, &mut out);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap(), &Json::Null);
        assert_eq!(v.get("e").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"\\q\""] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rejects_nesting_past_the_cap_without_overflowing_the_stack() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let doc = |depth: usize| format!("{}1{}", open.repeat(depth), close.repeat(depth));
            assert!(parse(&doc(MAX_DEPTH)).is_ok(), "{open} at the cap");
            let err = parse(&doc(MAX_DEPTH + 1)).expect_err("one past the cap");
            assert!(err.contains("nesting deeper"), "{err}");
            // Unterminated, far deeper than any stack would hold frames for.
            assert!(parse(&open.repeat(1_000_000)).is_err(), "{open} x 1e6");
        }
        // Mixed arrays and objects count toward the same cap.
        let mixed = "[{\"k\":".repeat(MAX_DEPTH / 2) + "[";
        assert!(parse(&mixed).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn round_trips_written_strings() {
        let mut out = String::new();
        write_str("τm → 2.5 \"quoted\"", &mut out);
        assert_eq!(parse(&out).unwrap().as_str(), Some("τm → 2.5 \"quoted\""));
    }

    #[test]
    fn parses_multibyte_strings_and_escapes() {
        let doc = r#"{"τm": "→ 2.5\t\"ok\" 日本\u00e9\n", "k": ["ß", "\\", "𝄞x"]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("τm").unwrap().as_str(), Some("→ 2.5\t\"ok\" 日本é\n"));
        let k = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(k.iter().map(|j| j.as_str().unwrap()).collect::<Vec<_>>(), ["ß", "\\", "𝄞x"]);
        // `\u` escapes with non-hex multi-byte digits or whose four bytes
        // end inside a char, and strings cut short after a multi-byte
        // char: `Err`, never a panic.
        for bad in ["\"\\u00é\"", "\"\\uéé\"", "\"\\u000é\"", "\"日本", "[\"→"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
