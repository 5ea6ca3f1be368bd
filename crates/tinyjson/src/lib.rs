//! A small, dependency-free JSON library: a value tree, a strict parser, a
//! pretty printer, and [`ToJson`]/[`FromJson`] traits with derive-style
//! macros for structs and unit enums.
//!
//! Design points that matter for model persistence:
//!
//! * Floats are printed with Rust's shortest-roundtrip formatting and
//!   parsed with the standard correctly-rounded parser, so a
//!   save → load → save cycle is bit-identical.
//! * Non-finite floats (the conformal quantile is `+inf` when the
//!   coverage rank exceeds the calibration size) are encoded as the
//!   strings `"Infinity"`, `"-Infinity"`, and `"NaN"` and decoded back.
//! * Objects keep insertion order, so output is deterministic.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Value)>),
}

/// Error raised by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Creates an error with the given description.
    pub fn msg(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a key, mapping missing keys and non-objects to `Null` —
    /// the lookup used by the `json_struct!` macro so `Option` fields
    /// tolerate absent keys.
    pub fn fetch(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&Value::Null)
    }

    /// The value as a string slice, or an error.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(JsonError::msg(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as a float; accepts the non-finite string encodings.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::Num(x) => Ok(*x),
            Value::Str(s) => match s.as_str() {
                "Infinity" => Ok(f64::INFINITY),
                "-Infinity" => Ok(f64::NEG_INFINITY),
                "NaN" => Ok(f64::NAN),
                _ => Err(JsonError::msg(format!("expected number, got {s:?}"))),
            },
            other => Err(JsonError::msg(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as a bool, or an error.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::msg(format!("expected bool, got {other:?}"))),
        }
    }

    /// The value as an array slice, or an error.
    pub fn as_arr(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(JsonError::msg(format!("expected array, got {other:?}"))),
        }
    }

    /// The value as object fields, or an error.
    pub fn as_obj(&self) -> Result<&[(String, Value)], JsonError> {
        match self {
            Value::Obj(fields) => Ok(fields),
            other => Err(JsonError::msg(format!("expected object, got {other:?}"))),
        }
    }

    /// Compact single-line rendering.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(x) => write_num(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Arr(items) => write_seq(out, items.iter(), indent, depth, ('[', ']'), |o, v, d| {
            write_value(o, v, indent, d);
        }),
        Value::Obj(fields) => write_seq(
            out,
            fields.iter(),
            indent,
            depth,
            ('{', '}'),
            |o, (k, v), d| {
                write_string(o, k);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(o, v, indent, d);
            },
        ),
    }
}

fn write_seq<T>(
    out: &mut String,
    items: impl ExactSizeIterator<Item = T>,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    out.push(brackets.0);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * depth));
        }
    }
    out.push(brackets.1);
}

fn write_num(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's Display is shortest-roundtrip, so parse(print(x)) == x
        // bit-for-bit; it never emits `inf`/`NaN` for finite input.
        out.push_str(&format!("{x}"));
    } else if x.is_nan() {
        out.push_str("\"NaN\"");
    } else if x > 0.0 {
        out.push_str("\"Infinity\"");
    } else {
        out.push_str("\"-Infinity\"");
    }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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

impl<'a> Parser<'a> {
    fn error(&self, what: &str) -> JsonError {
        JsonError::msg(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.error("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.parse_hex4()?;
                                let combined =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                            } else {
                                char::from_u32(hi)
                            };
                            s.push(c.ok_or_else(|| self.error("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 encoded char.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.error("truncated"))?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document into a [`Value`]; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into a JSON value tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Value;
}

/// Conversion out of a JSON value tree.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, or explains why the value does not fit.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

/// Serializes to a compact single-line string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render_compact()
}

/// Serializes to an indented multi-line string.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().render_pretty()
}

/// Parses a string into any [`FromJson`] type.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.as_str()?.to_string())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let x = v.as_f64()?;
                if x.fract() == 0.0 && x >= 0.0 && x <= <$ty>::MAX as f64 {
                    Ok(x as $ty)
                } else {
                    Err(JsonError::msg(format!(
                        "expected {}, got {x}", stringify!($ty)
                    )))
                }
            }
        }
    )+};
}

impl_json_uint!(u8, u16, u32, u64, usize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(inner) => inner.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_arr()? {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            other => Err(JsonError::msg(format!(
                "expected pair, got {} items",
                other.len()
            ))),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_arr()? {
            [a, b, c] => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            other => Err(JsonError::msg(format!(
                "expected triple, got {} items",
                other.len()
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Derive-style macros
// ---------------------------------------------------------------------------

/// Implements [`ToJson`]/[`FromJson`] for a struct by listing its fields.
/// Missing keys decode as `null`, so `Option` fields tolerate absence.
///
/// `json_struct!(Name { a, b } check f)` also runs `f`, a
/// `fn(&Name) -> Result<(), String>` (a path or a non-capturing closure),
/// on every decoded value and fails the decode with its message: the
/// place for invariants between fields that the rest of the program
/// indexes by.
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        $crate::json_struct!($name { $($field),+ } check |_: &$name| Ok(()));
    };
    ($name:ident { $($field:ident),+ $(,)? } check $check:expr) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Obj(vec![
                    $((stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Value) -> ::std::result::Result<Self, $crate::JsonError> {
                v.as_obj()?;
                let value = $name {
                    $($field: $crate::FromJson::from_json(v.fetch(stringify!($field)))
                        .map_err(|e| $crate::JsonError::msg(format!(
                            "{}.{}: {e}", stringify!($name), stringify!($field)
                        )))?,)+
                };
                let check: fn(&$name) -> ::std::result::Result<(), String> = $check;
                check(&value).map_err(|e| $crate::JsonError::msg(format!(
                    "{}: {e}", stringify!($name)
                )))?;
                Ok(value)
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a unit enum as its variant name.
#[macro_export]
macro_rules! json_unit_enum {
    ($name:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Str(
                    match self { $($name::$variant => stringify!($variant),)+ }.to_string(),
                )
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Value) -> ::std::result::Result<Self, $crate::JsonError> {
                match v.as_str()? {
                    $(stringify!($variant) => Ok($name::$variant),)+
                    other => Err($crate::JsonError::msg(format!(
                        "unknown {} variant {other:?}", stringify!($name)
                    ))),
                }
            }
        }
    };
}

/// Builds a [`Value`] inline: `json!({"k": expr, ...})`, `json!([a, b])`,
/// or `json!(expr)` for any [`ToJson`] expression.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Obj(vec![
            $(($key.to_string(), $crate::ToJson::to_json(&$val)),)*
        ])
    };
    ([ $($val:expr),* $(,)? ]) => {
        $crate::Value::Arr(vec![ $($crate::ToJson::to_json(&$val),)* ])
    };
    ($val:expr) => { $crate::ToJson::to_json(&$val) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic_values() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": "hi\n", "c": null, "d": true}"#).unwrap();
        assert_eq!(v.fetch("a").as_arr().unwrap()[2], Value::Num(-300.0));
        assert_eq!(v.fetch("b").as_str().unwrap(), "hi\n");
        assert_eq!(*v.fetch("c"), Value::Null);
        assert!(v.fetch("d").as_bool().unwrap());
        let reparsed = parse(&v.render_pretty()).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn floats_roundtrip_bitwise() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.797_693_134_862_315_7e308,
            -2.5e-300,
            0.0,
            -0.0,
        ] {
            let s = to_string(&x);
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }

    #[test]
    fn non_finite_floats_encode_as_strings() {
        assert_eq!(to_string(&f64::INFINITY), "\"Infinity\"");
        assert_eq!(to_string(&f64::NEG_INFINITY), "\"-Infinity\"");
        assert_eq!(to_string(&f64::NAN), "\"NaN\"");
        let inf: f64 = from_str("\"Infinity\"").unwrap();
        assert!(inf.is_infinite() && inf > 0.0);
        let nan: f64 = from_str("\"NaN\"").unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse("{{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] tail").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(from_str::<f64>("\"not a number\"").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "é😀");
    }

    #[derive(Debug, PartialEq)]
    struct Point {
        x: f64,
        tag: Option<String>,
    }
    json_struct!(Point { x, tag });

    #[derive(Debug, PartialEq)]
    enum Color {
        Red,
        Blue,
    }
    json_unit_enum!(Color { Red, Blue });

    #[test]
    fn struct_and_enum_macros() {
        let p = Point { x: 2.5, tag: None };
        let text = to_string_pretty(&p);
        let back: Point = from_str(&text).unwrap();
        assert_eq!(back, p);
        // Missing optional key decodes as None.
        let sparse: Point = from_str(r#"{"x": 1}"#).unwrap();
        assert_eq!(sparse, Point { x: 1.0, tag: None });
        assert_eq!(to_string(&Color::Red), "\"Red\"");
        assert_eq!(from_str::<Color>("\"Blue\"").unwrap(), Color::Blue);
        assert!(from_str::<Color>("\"Green\"").is_err());
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({"alpha": 0.1, "names": json!(["a", "b"]), "n": 3usize});
        let text = v.render_compact();
        assert_eq!(text, r#"{"alpha":0.1,"names":["a","b"],"n":3}"#);
    }

    #[test]
    fn tuples_encode_as_arrays() {
        let v = ("s".to_string(), 1.5, vec![2.0f64]);
        let back: (String, f64, Vec<f64>) = from_str(&to_string(&v)).unwrap();
        assert_eq!(back, v);
    }
}
