//! The workspace's one JSON reader: the service wire format and the
//! snapshot / job-checkpoint JSON wrappers all parse through it.
//!
//! The workspace is std-only, and the documents it reads are small
//! machine- or hand-authored objects, so a compact recursive-descent
//! parser is the honest tool: full JSON value grammar, string escapes, a
//! depth limit, and loud errors. It parses — it does not pretty-print;
//! documents are assembled with `format!` like every other JSON emitter
//! in the workspace.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as its literal text so integers stay exact;
    /// read it with [`Value::as_num`] or [`Value::as_u64`].
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is irrelevant to the wire format, so a sorted
    /// map keeps lookups simple.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (nearest `f64`).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The literal's exact value, if this is a number that is a
    /// non-negative integer fitting in `u64` (`5`, `5.0` and `5e0` alike);
    /// `None` otherwise — never a rounded or saturated value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => exact_u64(n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Why a body failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset the parser stopped at.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth beyond which a body is rejected (stack safety against
/// adversarial `[[[[...]]]]` inputs).
const MAX_DEPTH: usize = 64;

/// Parse one complete JSON document.
///
/// # Errors
///
/// A [`ParseError`] naming the first offending byte; trailing non-space
/// content after the document is an error too.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing content after the JSON document"));
    }
    Ok(v)
}

struct Parser<'t> {
    bytes: &'t [u8],
    pos: usize,
}

impl<'t> Parser<'t> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError { message, at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not worth supporting in a
                            // machine-to-machine wire format; reject them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so this is
                    // always well-formed).
                    let rest = &self.bytes[self.pos..];
                    let s = first_scalar(rest);
                    out.push_str(s);
                    self.pos += s.len();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(text.to_string())),
            _ => Err(self.err("malformed number")),
        }
    }
}

/// The exact value of a number literal the parser accepted, when it is a
/// non-negative integer that fits in `u64`: the digits are scaled by the
/// exponent in integer arithmetic, so nothing is rounded through `f64`.
fn exact_u64(lit: &str) -> Option<u64> {
    let (negative, unsigned) = match lit.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, lit),
    };
    let (mantissa, exp) = match unsigned.split_once(['e', 'E']) {
        Some((m, e)) => (m, e.parse::<i64>().ok()?),
        None => (unsigned, 0),
    };
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let digits = format!("{int}{frac}");
    let mut digits = digits.trim_start_matches('0');
    if digits.is_empty() {
        return Some(0);
    }
    if negative {
        return None;
    }
    let mut exp = exp.checked_sub(i64::try_from(frac.len()).ok()?)?;
    while exp < 0 {
        digits = digits.strip_suffix('0')?;
        exp += 1;
    }
    let scale = 10u64.checked_pow(u32::try_from(exp).ok()?)?;
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

/// The first UTF-8 scalar of `bytes`, as a str slice (bytes come from a
/// `&str`, so decoding cannot fail — this just finds the boundary).
fn first_scalar(bytes: &[u8]) -> &str {
    let len = match bytes[0] {
        b if b < 0x80 => 1,
        b if b < 0xE0 => 2,
        b if b < 0xF0 => 3,
        _ => 4,
    };
    std::str::from_utf8(&bytes[..len]).expect("input was a valid &str")
}

/// Escape `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_wire_shapes() {
        let v = parse(r#"{"kind":"networks","cores":2,"nets":["ncf","gpt2"],"deep":{"x":null}}"#)
            .unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("networks"));
        assert_eq!(v.get("cores").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("nets").and_then(Value::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(v.get("deep").and_then(|d| d.get("x")), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn integers_are_exact_or_absent() {
        let u = |t: &str| parse(t).unwrap().as_u64();
        // 2^53 + 1 has no f64 twin; it must not round to 2^53.
        assert_eq!(u("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        // 2^64 does not fit: absent, not saturated to u64::MAX.
        assert_eq!(u("18446744073709551616"), None);
        assert_eq!(u("1e20"), None);
        // Integer-valued literals in any spelling keep their value.
        assert_eq!(u("500"), Some(500));
        assert_eq!(u("5.0"), Some(5));
        assert_eq!(u("5e2"), Some(500));
        assert_eq!(u("1.5e1"), Some(15));
        assert_eq!(u("-0"), Some(0));
        assert_eq!(u("0.000"), Some(0));
        // Fractions and negatives are not u64s.
        assert_eq!(u("1.5"), None);
        assert_eq!(u("15e-1"), None);
        assert_eq!(u("-1"), None);
        assert_eq!(parse("\"1\"").unwrap().as_u64(), None);
    }

    #[test]
    fn numbers_bools_and_escapes() {
        assert_eq!(parse("-12.5e1").unwrap().as_num(), Some(-125.0));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(r#""a\nb\t\"c\" A""#).unwrap().as_str(), Some("a\nb\t\"c\" A"));
        assert_eq!(parse(r#""héllo""#).unwrap().as_str(), Some("héllo"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "01x",
            "{} trailing",
            "nan",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn escape_round_trips() {
        let s = "line\none\t\"quoted\" \\ \u{1}";
        let quoted = format!("\"{}\"", escape(s));
        assert_eq!(parse(&quoted).unwrap().as_str(), Some(s));
    }
}
