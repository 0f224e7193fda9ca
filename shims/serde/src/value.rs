//! The shim's owned data-model tree and its JSON text form.
//!
//! [`Value`] plays the role real serde splits between its streaming data
//! model and `serde_json::Value`: every `Serialize` implementation produces a
//! `Value`, every `Deserialize` implementation consumes one, and the JSON
//! reader/writer below round-trips the tree through text. Object entries keep
//! insertion order (struct field declaration order), which keeps the golden
//! JSON fixtures readable.

use std::fmt;
use std::sync::Arc;

/// An owned JSON-like document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A finite floating-point number (non-finite floats are encoded as the
    /// strings `"inf"`, `"-inf"` and `"nan"`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object; entries keep insertion order.
    Map(Vec<(String, Value)>),
}

/// Error produced when a [`Value`] does not have the shape a `Deserialize`
/// implementation expects, or when JSON text cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    pub fn msg(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Builds an object from `(field, value)` pairs (used by the derive).
    pub fn record(fields: Vec<(&'static str, Value)>) -> Value {
        Value::Map(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds an externally tagged enum variant: `{"name": payload}` (used by
    /// the derive).
    pub fn variant(name: &str, payload: Value) -> Value {
        Value::Map(vec![(name.to_string(), payload)])
    }

    /// A short description of the value's shape, for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::U64(_) | Value::I64(_) | Value::F64(_) => "a number",
            Value::Str(_) => "a string",
            Value::Seq(_) => "an array",
            Value::Map(_) => "an object",
        }
    }

    /// The value of field `name`, for a struct named `ty` (used by the
    /// derive).
    ///
    /// # Errors
    ///
    /// Errors when `self` is not an object or the field is absent.
    pub fn get_field(&self, ty: &str, name: &str) -> Result<&Value, Error> {
        let Value::Map(entries) = self else {
            return Err(Error::msg(format!(
                "expected an object for struct {ty}, got {}",
                self.kind()
            )));
        };
        entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| Error::msg(format!("missing field `{name}` of struct {ty}")))
    }

    /// The elements of a tuple (struct) named `ty` with exactly `len` fields
    /// (used by the derive).
    ///
    /// # Errors
    ///
    /// Errors when `self` is not an array of length `len`.
    pub fn get_seq(&self, ty: &str, len: usize) -> Result<&[Value], Error> {
        let Value::Seq(items) = self else {
            return Err(Error::msg(format!(
                "expected an array for {ty}, got {}",
                self.kind()
            )));
        };
        if items.len() != len {
            return Err(Error::msg(format!(
                "expected {len} elements for {ty}, got {}",
                items.len()
            )));
        }
        Ok(items)
    }

    /// Splits an externally tagged enum value named `ty` into its variant
    /// name and optional payload (used by the derive): a bare string is a
    /// unit variant, a single-entry object is a data-carrying variant.
    ///
    /// # Errors
    ///
    /// Errors on any other shape.
    pub fn get_variant(&self, ty: &str) -> Result<(&str, Option<&Value>), Error> {
        match self {
            Value::Str(s) => Ok((s.as_str(), None)),
            Value::Map(entries) if entries.len() == 1 => {
                Ok((entries[0].0.as_str(), Some(&entries[0].1)))
            }
            other => Err(Error::msg(format!(
                "expected a variant of enum {ty} (a string or single-entry object), got {}",
                other.kind()
            ))),
        }
    }

    /// Renders the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, None, 0);
        out
    }

    /// Renders the value as indented multi-line JSON.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in, colon) = match indent {
            Some(width) => (
                "\n",
                " ".repeat(width * depth),
                " ".repeat(width * (depth + 1)),
                ": ",
            ),
            None => ("", String::new(), String::new(), ":"),
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(x) => write_f64(out, *x),
            Value::Str(s) => write_json_string(out, s),
            Value::Seq(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write_json(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Value::Map(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_json_string(out, key);
                    out.push_str(colon);
                    value.write_json(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses JSON text into a value tree.
    ///
    /// # Errors
    ///
    /// Errors on malformed JSON or trailing input.
    pub fn parse_json(text: &str) -> Result<Value, Error> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(Error::msg(format!(
                "trailing characters at byte {}",
                parser.pos
            )));
        }
        Ok(value)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

/// Writes a float: finite values use Rust's shortest round-trip formatting,
/// non-finite values the string encodings documented on [`Value::F64`].
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&x.to_string());
    } else if x.is_nan() {
        out.push_str("\"nan\"");
    } else if x > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::msg(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::msg(format!(
                "invalid literal at byte {} (expected `{text}`)",
                self.pos
            )))
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
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
            .map_err(|_| Error::msg("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error::msg(format!("invalid number `{text}`")))
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(Error::msg("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest
                        .get(1)
                        .copied()
                        .ok_or_else(|| Error::msg("unterminated escape sequence"))?;
                    self.pos += 2;
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::msg("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this shim's
                            // writer; map lone surrogates to the replacement
                            // character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::msg(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str, so the
                    // bytes are valid UTF-8).
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| Error::msg("invalid UTF-8 in string"))?;
                    let c = text.chars().next().expect("non-empty string slice");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Implementations for primitives and std containers.
// ---------------------------------------------------------------------------

use crate::{Deserialize, Serialize};

macro_rules! ser_de_unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_shim_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn from_shim_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::U64(n) => n,
                    Value::I64(n) if n >= 0 => n as u64,
                    ref other => {
                        return Err(Error::msg(format!(
                            "expected an unsigned integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$ty>::try_from(n).map_err(|_| {
                    Error::msg(format!("{n} is out of range for {}", stringify!($ty)))
                })
            }
        }
    )*};
}

ser_de_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_de_signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_shim_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::U64(n as u64)
                } else {
                    Value::I64(n)
                }
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn from_shim_value(v: &Value) -> Result<Self, Error> {
                let n: i64 = match *v {
                    Value::U64(n) => i64::try_from(n)
                        .map_err(|_| Error::msg(format!("{n} is out of range")))?,
                    Value::I64(n) => n,
                    ref other => {
                        return Err(Error::msg(format!(
                            "expected an integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$ty>::try_from(n).map_err(|_| {
                    Error::msg(format!("{n} is out of range for {}", stringify!($ty)))
                })
            }
        }
    )*};
}

ser_de_signed!(i8, i16, i32, i64, isize);

macro_rules! ser_de_float {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_shim_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn from_shim_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::F64(x) => Ok(*x as $ty),
                    Value::U64(n) => Ok(*n as $ty),
                    Value::I64(n) => Ok(*n as $ty),
                    Value::Str(s) => match s.as_str() {
                        "inf" => Ok(<$ty>::INFINITY),
                        "-inf" => Ok(<$ty>::NEG_INFINITY),
                        "nan" => Ok(<$ty>::NAN),
                        _ => Err(Error::msg(format!("expected a number, got string `{s}`"))),
                    },
                    other => Err(Error::msg(format!(
                        "expected a number, got {}",
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}

ser_de_float!(f32, f64);

impl Serialize for bool {
    fn to_shim_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!(
                "expected a boolean, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn to_shim_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_shim_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!(
                "expected a string, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for char {
    fn to_shim_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<'de> Deserialize<'de> for char {
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one character")),
            other => Err(Error::msg(format!(
                "expected a one-character string, got {other}"
            ))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_shim_value(&self) -> Value {
        (**self).to_shim_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_shim_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_shim_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_shim_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_shim_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_shim_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_shim_value(&self) -> Value {
        self.as_slice().to_shim_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_shim_value).collect(),
            other => Err(Error::msg(format!(
                "expected an array, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_shim_value(&self) -> Value {
        self.as_slice().to_shim_value()
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_shim_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::msg(format!("expected an array of {N} elements, got {len}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_shim_value(&self) -> Value {
        (**self).to_shim_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<T> {
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        Ok(Arc::new(T::from_shim_value(v)?))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<[T]> {
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::from_shim_value(v)?.into())
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_shim_value(&self) -> Value {
        (**self).to_shim_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_shim_value(v)?))
    }
}

macro_rules! ser_de_tuple {
    ($(($len:literal; $($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_shim_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_shim_value()),+])
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_shim_value(v: &Value) -> Result<Self, Error> {
                let items = v.get_seq("a tuple", $len)?;
                Ok(($($name::from_shim_value(&items[$idx])?,)+))
            }
        }
    )*};
}

ser_de_tuple! {
    (1; A: 0)
    (2; A: 0, B: 1)
    (3; A: 0, B: 1, C: 2)
    (4; A: 0, B: 1, C: 2, D: 3)
}

/// Stringifies a serialized map key the way `serde_json` does for string and
/// integer keys; other key shapes become their compact JSON text (a shim
/// extension — real `serde_json` rejects them).
fn key_to_string(key: Value) -> String {
    match key {
        Value::Str(s) => s,
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        other => other.to_json(),
    }
}

/// Recovers a map key of type `K` from its stringified form: first as a
/// string value, then as an integer, then as embedded JSON.
fn key_from_string<'de, K: Deserialize<'de>>(key: &str) -> Result<K, Error> {
    if let Ok(k) = K::from_shim_value(&Value::Str(key.to_string())) {
        return Ok(k);
    }
    if let Ok(n) = key.parse::<u64>() {
        if let Ok(k) = K::from_shim_value(&Value::U64(n)) {
            return Ok(k);
        }
    }
    if let Ok(n) = key.parse::<i64>() {
        if let Ok(k) = K::from_shim_value(&Value::I64(n)) {
            return Ok(k);
        }
    }
    if let Ok(embedded) = Value::parse_json(key) {
        if let Ok(k) = K::from_shim_value(&embedded) {
            return Ok(k);
        }
    }
    Err(Error::msg(format!(
        "cannot reconstruct map key from `{key}`"
    )))
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_shim_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (key_to_string(k.to_shim_value()), v.to_shim_value()))
                .collect(),
        )
    }
}

impl<'de, K, V> Deserialize<'de> for std::collections::BTreeMap<K, V>
where
    K: Deserialize<'de> + Ord,
    V: Deserialize<'de>,
{
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        let Value::Map(entries) = v else {
            return Err(Error::msg(format!("expected an object, got {}", v.kind())));
        };
        entries
            .iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::from_shim_value(v)?)))
            .collect()
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "serde's impl for the std map; entries are sorted, so the text is deterministic"
)]
impl<K, V, S> Serialize for std::collections::HashMap<K, V, S>
where
    K: Serialize,
    V: Serialize,
    S: std::hash::BuildHasher,
{
    fn to_shim_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_to_string(k.to_shim_value()), v.to_shim_value()))
            .collect();
        // Hash maps iterate in arbitrary order; sort for deterministic text.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "serde's impl for the std map; building a map observes no iteration order"
)]
impl<'de, K, V, S> Deserialize<'de> for std::collections::HashMap<K, V, S>
where
    K: Deserialize<'de> + Eq + std::hash::Hash,
    V: Deserialize<'de>,
    S: std::hash::BuildHasher + Default,
{
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        let Value::Map(entries) = v else {
            return Err(Error::msg(format!("expected an object, got {}", v.kind())));
        };
        entries
            .iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::from_shim_value(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_shim_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_shim_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_text() {
        let value = Value::Map(vec![
            ("name".to_string(), Value::Str("exp \"1\"\n".to_string())),
            (
                "sweep".to_string(),
                Value::Seq(vec![Value::U64(10), Value::I64(-3), Value::F64(1.5)]),
            ),
            ("flag".to_string(), Value::Bool(true)),
            ("none".to_string(), Value::Null),
        ]);
        let compact = value.to_json();
        assert_eq!(Value::parse_json(&compact).unwrap(), value);
        let pretty = value.to_json_pretty();
        assert_eq!(Value::parse_json(&pretty).unwrap(), value);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn non_finite_floats_round_trip_as_strings() {
        assert_eq!(f64::INFINITY.to_shim_value().to_json(), "\"inf\"");
        let back = f64::from_shim_value(&Value::Str("inf".to_string())).unwrap();
        assert!(back.is_infinite() && back > 0.0);
        let nan = f64::from_shim_value(&Value::Str("nan".to_string())).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn integer_map_keys_stringify_and_recover() {
        let mut map = std::collections::BTreeMap::new();
        map.insert(7u64, 42u64);
        let value = map.to_shim_value();
        assert_eq!(value.to_json(), "{\"7\":42}");
        let back: std::collections::BTreeMap<u64, u64> =
            Deserialize::from_shim_value(&value).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Value::parse_json("{\"a\": }").is_err());
        assert!(Value::parse_json("[1, 2").is_err());
        assert!(Value::parse_json("12 34").is_err());
        assert!(Value::parse_json("nul").is_err());
    }
}
