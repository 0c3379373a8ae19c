//! Offline stand-in for `serde_json`, built on the serde shim's [`Value`]
//! data model: a complete JSON writer/parser for the subset of JSON the
//! workspace produces (finite numbers, UTF-8 strings, arrays, objects).
//!
//! Floats are written with Rust's shortest-round-trip formatting, so a
//! serialize → parse round trip reproduces every `f64` bit-exactly —
//! the property the experiment store and the golden-snapshot tests rely
//! on. Non-finite floats serialize as `null`, as the real crate does.

pub use serde::Value;
use serde::{DeError, Serialize};

/// Error from serialization or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    Ok(value.to_value())
}

/// Reconstructs a type from a [`Value`] tree.
pub fn from_value<T: serde::de::DeserializeOwned>(value: Value) -> Result<T> {
    Ok(T::from_value(&value)?)
}

/// Serializes to a JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.as_value());
    Ok(out)
}

/// Serializes to a pretty-printed JSON string (two-space indent).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value_pretty(&mut out, &value.as_value(), 0);
    Ok(out)
}

/// Serializes to JSON bytes.
pub fn to_vec<T: Serialize>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Parses a type from a JSON string.
pub fn from_str<T: serde::de::DeserializeOwned>(s: &str) -> Result<T> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

/// Parses a type from JSON bytes.
pub fn from_slice<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

/// Builds a [`Value`] from a literal, mirroring `serde_json::json!`.
///
/// Shim limitation: inside `[...]`/`{...}` literals an element must be a
/// single token tree, so write negative numbers parenthesized: `[(-3)]`.
/// Top-level `json!(-3)` works unparenthesized.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $($crate::json!($elem)),* ])
    };
    ({ $($key:tt : $val:tt),* $(,)? }) => {
        $crate::Value::Object(vec![ $(($key.to_string(), $crate::json!($val))),* ])
    };
    ($other:expr) => { $crate::Value::from($other) };
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                for _ in 0..indent + 1 {
                    out.push_str("  ");
                }
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            for _ in 0..indent {
                out.push_str("  ");
            }
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                for _ in 0..indent + 1 {
                    out.push_str("  ");
                }
                write_string(out, k);
                out.push_str(": ");
                write_value_pretty(out, val, indent + 1);
            }
            out.push('\n');
            for _ in 0..indent {
                out.push_str("  ");
            }
            out.push('}');
        }
        other => write_value(out, other),
    }
}

fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // `{:?}` is Rust's shortest representation that round-trips exactly;
    // it always contains '.' or 'e' so the value re-parses as a float.
    let s = format!("{f:?}");
    out.push_str(&s);
}

fn write_string(out: &mut String, s: &str) {
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

fn parse(s: &str) -> Result<Value> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => {
                    return Err(Error(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|e| Error(format!("invalid utf-8 in string: {e}")))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii number text");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| Error(format!("bad number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_round_trip_is_bit_exact() {
        for f in [0.1, 1.0, -3.25e-17, 1e300, f64::MIN_POSITIVE, 123456789.123456789] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{f} -> {s} -> {back}");
        }
    }

    #[test]
    fn values_are_written_in_place() {
        let v = json!({"a": [1, "b"]});
        assert!(matches!(v.as_value(), std::borrow::Cow::Borrowed(_)));
        assert!(matches!((&&v).as_value(), std::borrow::Cow::Borrowed(_)));
        assert_eq!(to_string(&v).unwrap(), to_string(&v.clone().to_value()).unwrap());
        assert_eq!(to_string(&v).unwrap(), "{\"a\":[1,\"b\"]}");
    }

    #[test]
    fn integers_stay_integers() {
        let v: Value = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v: Value = parse("-42").unwrap();
        assert_eq!(v.as_i64(), Some(-42));
    }

    #[test]
    fn containers_round_trip() {
        let v = json!({
            "name": "mix",
            "vals": [1.5, 2, (-3)],
            "flag": true,
            "none": null
        });
        let s = to_string(&v).unwrap();
        let back: Value = parse(&s).unwrap();
        assert_eq!(v, back);
        assert_eq!(back["vals"][0].as_f64(), Some(1.5));
        assert_eq!(back["name"].as_str(), Some("mix"));
    }

    #[test]
    fn string_escapes() {
        let original = "line\nquote\"slash\\tab\tunicode\u{1F600}ctrl\u{1}";
        let s = to_string(&original.to_string()).unwrap();
        let back: String = from_str(&s).unwrap();
        assert_eq!(original, back);
    }

    #[test]
    fn pretty_parses_back() {
        let v = json!({"a": [1, 2], "b": {"c": 0.5}});
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = parse(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }
}
