//! Offline `serde_json` shim: JSON text ⇄ the shim `serde::Value` tree.
//!
//! Supports the workspace's uses: `to_string`, `to_string_pretty` and
//! `from_str`. The emitter escapes control characters and quotes; numbers are
//! printed with Rust's shortest-round-trip float formatting. The parser is a
//! straightforward recursive-descent JSON reader producing `serde::Value`.

#![forbid(unsafe_code)]

use serde::{DeError, Deserialize, Serialize, Value};

/// Error raised by JSON conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out)?;
    Ok(out)
}

/// Serializes a value to human-readable, indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out)?;
    Ok(out)
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------------

fn write_value(
    v: &Value,
    indent: Option<usize>,
    level: usize,
    out: &mut String,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error::new("cannot serialize non-finite float"));
            }
            if f.fract() == 0.0 && f.abs() < 1e15 {
                // Keep integral floats recognizable (serde_json prints `1.0`).
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&f.to_string());
            }
        }
        Value::Str(s) => write_json_string(s, out),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                write_value(item, indent, level + 1, out)?;
            }
            newline_indent(indent, level, out);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                write_json_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, level + 1, out)?;
            }
            newline_indent(indent, level, out);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(indent: Option<usize>, level: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn eat(&mut self, expected: u8) -> Result<(), Error> {
        let got = self.peek()?;
        if got != expected {
            return Err(Error::new(format!(
                "expected '{}' at byte {}, found '{}'",
                expected as char, self.pos, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, text: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => {
                self.literal("null")?;
                Ok(Value::Null)
            }
            b't' => {
                self.literal("true")?;
                Ok(Value::Bool(true))
            }
            b'f' => {
                self.literal("false")?;
                Ok(Value::Bool(false))
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        c => {
                            return Err(Error::new(format!(
                                "expected ',' or ']' at byte {}, found '{}'",
                                self.pos, c as char
                            )))
                        }
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut entries = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    let value = self.value()?;
                    entries.push((key, value));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        c => {
                            return Err(Error::new(format!(
                                "expected ',' or '}}' at byte {}, found '{}'",
                                self.pos, c as char
                            )))
                        }
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                        }
                        c => return Err(Error::new(format!("invalid escape '\\{}'", c as char))),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at pos-1.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error::new("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::new(format!("invalid number at byte {start}")));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid float '{text}'")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<u128>()
                .map(|n| Value::Int(-(n as i128)))
                .map_err(|_| Error::new(format!("invalid integer '{text}'")))
        } else {
            text.parse::<u128>()
                .map(Value::UInt)
                .map_err(|_| Error::new(format!("invalid integer '{text}'")))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_values() {
        let v = Value::Map(vec![
            ("a".into(), Value::UInt(3)),
            ("b".into(), Value::Float(1.5)),
            ("c".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
            ("d".into(), Value::Str("he\"llo\nworld".into())),
            ("e".into(), Value::Int(-12)),
        ]);
        let text = {
            let mut out = String::new();
            write_value(&v, None, 0, &mut out).unwrap();
            out
        };
        assert_eq!(parse_value(&text).unwrap(), v);
    }

    #[test]
    fn pretty_output_is_indented_and_parseable() {
        let v = Value::Map(vec![("k".into(), Value::Seq(vec![Value::UInt(1)]))]);
        let mut out = String::new();
        write_value(&v, Some(2), 0, &mut out).unwrap();
        assert!(out.contains('\n'));
        assert_eq!(parse_value(&out).unwrap(), v);
    }

    #[test]
    fn float_formatting_round_trips() {
        for f in [0.1, 1.0, -2.5, 1e-9, 12345.6789, std::f64::consts::PI] {
            let mut out = String::new();
            write_value(&Value::Float(f), None, 0, &mut out).unwrap();
            match parse_value(&out).unwrap() {
                Value::Float(back) => assert_eq!(back, f),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("nul").is_err());
        assert!(parse_value("1 2").is_err());
    }

    #[test]
    fn unicode_strings_survive() {
        let v = Value::Str("héllo ↯ 日本語".into());
        let mut out = String::new();
        write_value(&v, None, 0, &mut out).unwrap();
        assert_eq!(parse_value(&out).unwrap(), v);
    }

    #[test]
    fn untagged_enums_serialize_as_their_payload() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Single {
            population: Vec<u8>,
        }
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Many {
            islands: Vec<Single>,
        }
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        #[serde(untagged)]
        enum Either {
            Single(Single),
            Many(Many),
        }
        let single = Either::Single(Single {
            population: vec![1, 2],
        });
        let many = Either::Many(Many {
            islands: vec![Single {
                population: vec![3],
            }],
        });
        for (value, text) in [
            (single, r#"{"population":[1,2]}"#),
            (many, r#"{"islands":[{"population":[3]}]}"#),
        ] {
            assert_eq!(to_string(&value).unwrap(), text);
            assert_eq!(from_str::<Either>(text).unwrap(), value);
        }
        assert!(from_str::<Either>(r#"{"other":1}"#).is_err());
    }
}
