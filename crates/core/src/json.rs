//! A deliberately tiny JSON value type with an emitter and parser, shared
//! by the bench harness (`BENCH.json`) and the serving daemon's HTTP
//! bodies, so neither pulls serde into a std-only workspace. Supports
//! exactly the JSON those consumers exchange: objects, arrays, strings,
//! finite numbers, booleans and null.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write as _;

/// A JSON value. Objects use a [`BTreeMap`] so emitted documents are
/// key-sorted and diffs stay stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values are emitted as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with key-sorted members.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts a member into an object (panics on non-objects — the
    /// harness only builds objects top-down).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value.into());
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if this is a whole number in
    /// `u32` range (the shape client counts and ports arrive in).
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Num(v) if *v >= 0.0 && *v == v.trunc() && *v <= f64::from(u32::MAX) => {
                Some(*v as u32)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// Mutable object map access, if this is an object.
    pub fn as_obj_mut(&mut self) -> Option<&mut BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        // One allocation covers a daemon reply (a `/predict` answer is
        // ~400 bytes); larger documents grow from there.
        let mut out = Vec::with_capacity(512);
        self.render_into(&mut out);
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    /// [`Json::render`], appended to `out`.
    pub fn render_into(&self, out: &mut Vec<u8>) {
        self.write(out, 0);
        out.push(b'\n');
    }

    fn write(&self, out: &mut Vec<u8>, indent: usize) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.extend_from_slice(b"[]");
                    return;
                }
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(b']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.extend_from_slice(b"{}");
                    return;
                }
                out.push(b'{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline(out, indent + 1);
                    write_escaped(out, k);
                    out.extend_from_slice(b": ");
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(b'}');
            }
        }
    }

    /// Parses a JSON document (strict enough for round-tripping what
    /// [`Json::render`] emits, lenient about whitespace).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut lex = Lexer::new(text);
        let value = lex.tree()?;
        lex.end()?;
        Ok(value)
    }
}

/// Reads a JSON document's top-level members without building it: each
/// member of a top-level object goes to `member` in document order (so a
/// caller that keeps the last one of a repeated key resolves duplicates
/// as [`Json::parse`]'s map does). Strings are borrowed from `text` and
/// scalars allocate nothing; a nested object or array arrives as a
/// parsed [`Value::Tree`]. Accepts and rejects exactly what
/// [`Json::parse`] does, with the same error texts — both run on one
/// lexer. A document that is not an object has no members.
pub fn read_members<'a>(
    text: &'a str,
    mut member: impl FnMut(JsonStr<'a>, Value<'a>),
) -> Result<(), String> {
    let mut lex = Lexer::new(text);
    lex.skip_ws();
    if lex.peek() == Some(b'{') {
        lex.object(|lex, key| {
            member(key, lex.value()?);
            Ok(())
        })?;
    } else {
        lex.tree()?;
    }
    lex.end()
}

/// A string token borrowed from the document, escapes not yet decoded.
#[derive(Debug, Clone, Copy)]
pub struct JsonStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> JsonStr<'a> {
    /// The string's value: borrowed from the document unless it holds an
    /// escape sequence.
    pub fn decode(&self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.raw);
        }
        let bytes = self.raw.as_bytes();
        let mut out = String::with_capacity(self.raw.len());
        let mut i = 0;
        while i < bytes.len() {
            let run = bytes[i..]
                .iter()
                .position(|&b| b == b'\\')
                .unwrap_or(bytes.len() - i);
            out.push_str(&self.raw[i..i + run]);
            i += run;
            if i == bytes.len() {
                break;
            }
            i += 1;
            match bytes[i] {
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    out.push(unicode_escape(bytes, i).expect("escape validated when lexed"));
                    i += 4;
                }
                other => out.push(char::from(other)), // '"', '\\' or '/'
            }
            i += 1;
        }
        Cow::Owned(out)
    }
}

/// A value read by [`read_members`]: scalars borrowed from the document,
/// objects and arrays parsed.
#[derive(Debug, Clone)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(JsonStr<'a>),
    /// An object or array.
    Tree(Json),
}

impl<'a> Value<'a> {
    /// A borrowing view of a parsed value (objects and arrays are cloned).
    pub fn of(json: &'a Json) -> Value<'a> {
        match json {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(*b),
            Json::Num(v) => Value::Num(*v),
            Json::Str(s) => Value::Str(JsonStr {
                raw: s,
                escaped: false,
            }),
            tree => Value::Tree(tree.clone()),
        }
    }

    /// The value as a [`Json`] tree.
    pub fn into_json(self) -> Json {
        match self {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::Num(v) => Json::Num(v),
            Value::Str(s) => Json::Str(s.decode().into_owned()),
            Value::Tree(tree) => tree,
        }
    }

    /// As [`Json::as_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// As [`Json::as_u32`].
    pub fn as_u32(&self) -> Option<u32> {
        Json::Num(self.as_f64()?).as_u32()
    }

    /// As [`Json::as_bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As [`Json::as_str`], decoded.
    pub fn as_str(&self) -> Option<Cow<'a, str>> {
        match self {
            Value::Str(s) => Some(s.decode()),
            _ => None,
        }
    }
}

/// The one JSON lexer: [`Json::parse`] builds trees on it and
/// [`read_members`] reads fields with it.
struct Lexer<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Lexer<'a> {
        Lexer {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Only whitespace may follow the document.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(())
    }

    /// The next value as a tree.
    fn tree(&mut self) -> Result<Json, String> {
        self.value().map(Value::into_json)
    }

    /// The next value: scalars borrowed, objects and arrays parsed.
    fn value(&mut self) -> Result<Value<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|lex, key| {
                    map.insert(key.decode().into_owned(), lex.tree()?);
                    Ok(())
                })?;
                Ok(Value::Tree(Json::Obj(map)))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Tree(Json::Arr(items)));
                }
                loop {
                    items.push(self.tree()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Tree(Json::Arr(items)));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if self.bytes[self.pos..].starts_with(b"null") => {
                self.pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                self.text[start..self.pos]
                    .parse()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// An object's members, each handed to `member` with the lexer at its
    /// value; the lexer sits at the opening brace.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Lexer<'a>, JsonStr<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = match self.value()? {
                Value::Str(key) => key,
                other => {
                    return Err(format!(
                        "object key must be a string, got {:?}",
                        other.into_json()
                    ))
                }
            };
            self.expect(b':')?;
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// A string token; the lexer sits at the opening quote. Escapes are
    /// validated here and decoded by [`JsonStr::decode`].
    fn string(&mut self) -> Result<JsonStr<'a>, String> {
        self.pos += 1;
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let raw = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(JsonStr { raw, escaped });
                }
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"' | b'\\' | b'/' | b'n' | b'r' | b't') => {}
                        Some(b'u') => {
                            unicode_escape(self.bytes, self.pos)?;
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                // One UTF-8 scalar (continuation bytes ride along with
                // their leading byte).
                Some(_) => {
                    self.pos += 1;
                    while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                }
            }
        }
    }
}

/// The character of the `\u` escape whose `u` sits at `bytes[u]`.
fn unicode_escape(bytes: &[u8], u: usize) -> Result<char, String> {
    let hex = bytes.get(u + 1..u + 5).ok_or("truncated \\u escape")?;
    let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
        .map_err(|e| e.to_string())?;
    char::from_u32(code).ok_or_else(|| "invalid \\u escape".to_string())
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Writes one object straight into `out` with exactly the bytes
/// [`Json::render`] gives the equivalent tree, trailing newline included,
/// but without building the tree: the shape of a hot reply is fixed, so
/// its members are emitted in place. Members must be added in sorted key
/// order, the order a [`BTreeMap`] renders them in.
pub fn write_object(out: &mut Vec<u8>, members: impl FnOnce(&mut ObjWriter<'_>)) {
    ObjWriter::nested(out, 0, members);
    out.push(b'\n');
}

/// The members of one object being written by [`write_object`].
pub struct ObjWriter<'o> {
    out: &'o mut Vec<u8>,
    indent: usize,
    members: usize,
    last_key: &'static str,
}

impl ObjWriter<'_> {
    fn nested(out: &mut Vec<u8>, indent: usize, members: impl FnOnce(&mut ObjWriter<'_>)) {
        out.push(b'{');
        let mut obj = ObjWriter {
            out,
            indent,
            members: 0,
            last_key: "",
        };
        members(&mut obj);
        if obj.members == 0 {
            obj.out.push(b'}');
        } else {
            newline(obj.out, indent);
            obj.out.push(b'}');
        }
    }

    fn key(&mut self, key: &'static str) -> &mut Vec<u8> {
        debug_assert!(
            self.members == 0 || key > self.last_key,
            "keys out of order: {key:?} after {:?}",
            self.last_key
        );
        if self.members > 0 {
            self.out.push(b',');
        }
        self.members += 1;
        self.last_key = key;
        newline(self.out, self.indent + 1);
        write_escaped(self.out, key);
        self.out.extend_from_slice(b": ");
        self.out
    }

    /// A number member (`null` when not finite, as [`Json::Num`]).
    pub fn num(&mut self, key: &'static str, v: f64) -> &mut Self {
        write_num(self.key(key), v);
        self
    }

    /// A number-or-`null` member.
    pub fn opt_num(&mut self, key: &'static str, v: Option<f64>) -> &mut Self {
        match v {
            Some(v) => write_num(self.key(key), v),
            None => self.key(key).extend_from_slice(b"null"),
        }
        self
    }

    /// A string member.
    pub fn str(&mut self, key: &'static str, v: &str) -> &mut Self {
        write_escaped(self.key(key), v);
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &'static str, v: bool) -> &mut Self {
        write_bool(self.key(key), v);
        self
    }

    /// An array-of-numbers member.
    pub fn nums(&mut self, key: &'static str, items: &[f64]) -> &mut Self {
        let indent = self.indent + 1;
        let out = self.key(key);
        if items.is_empty() {
            out.extend_from_slice(b"[]");
            return self;
        }
        out.push(b'[');
        for (i, &v) in items.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            newline(out, indent + 1);
            write_num(out, v);
        }
        newline(out, indent);
        out.push(b']');
        self
    }

    /// A nested-object member.
    pub fn obj(
        &mut self,
        key: &'static str,
        members: impl FnOnce(&mut ObjWriter<'_>),
    ) -> &mut Self {
        let indent = self.indent + 1;
        ObjWriter::nested(self.key(key), indent, members);
        self
    }
}

/// A line break followed by `indent` levels of two-space indentation.
fn newline(out: &mut Vec<u8>, indent: usize) {
    out.push(b'\n');
    for _ in 0..indent {
        out.extend_from_slice(b"  ");
    }
}

fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// The one number formatter: whole numbers below 1e15 as integers, other
/// finite values in the shortest form that round-trips, and non-finite
/// values as `null`. Formats on the stack.
fn write_num(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    // Every byte that needs escaping is ASCII, so multi-byte scalars
    // copy through byte by byte.
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                let _ = write!(out, "\\u{b:04x}");
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let mut doc = Json::obj();
        doc.set("name", "solver \"bench\"\n");
        doc.set("count", 42u64);
        doc.set("mean_s", 0.001_25);
        doc.set("ok", true);
        doc.set("none", Json::Null);
        doc.set(
            "rows",
            Json::Arr(vec![Json::Num(1.0), Json::Str("µs".into())]),
        );
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_render_without_exponent() {
        let text = Json::Num(1_722_003_456.0).render();
        assert_eq!(text.trim(), "1722003456");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} extra").is_err());
    }

    #[test]
    fn typed_accessors_reject_other_variants() {
        let doc = Json::parse(r#"{"s": "x", "n": 7, "b": true, "a": [1], "f": 1.5}"#).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("n").and_then(Json::as_u32), Some(7));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("f").and_then(Json::as_u32), None);
        assert_eq!(doc.get("s").and_then(Json::as_u32), None);
        assert_eq!(Json::Num(-1.0).as_u32(), None);
    }

    #[test]
    fn keys_are_sorted_for_stable_diffs() {
        let mut doc = Json::obj();
        doc.set("zebra", 1u64);
        doc.set("alpha", 2u64);
        let text = doc.render();
        assert!(text.find("alpha").unwrap() < text.find("zebra").unwrap());
    }

    /// The recursive parser `Json::parse` ran before it moved onto the
    /// shared lexer, kept as the oracle the lexer is held to.
    mod reference {
        use super::super::Json;
        use std::collections::BTreeMap;

        pub fn parse(text: &str) -> Result<Json, String> {
            let bytes = text.as_bytes();
            let mut pos = 0;
            let value = parse_value(bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(format!("trailing garbage at byte {pos}"));
            }
            Ok(value)
        }

        fn skip_ws(bytes: &[u8], pos: &mut usize) {
            while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
                *pos += 1;
            }
        }

        fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b) {
                *pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {pos}", b as char))
            }
        }

        fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b'{') => {
                    *pos += 1;
                    let mut map = BTreeMap::new();
                    skip_ws(bytes, pos);
                    if bytes.get(*pos) == Some(&b'}') {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    loop {
                        skip_ws(bytes, pos);
                        let key = match parse_value(bytes, pos)? {
                            Json::Str(s) => s,
                            other => {
                                return Err(format!("object key must be a string, got {other:?}"))
                            }
                        };
                        expect(bytes, pos, b':')?;
                        map.insert(key, parse_value(bytes, pos)?);
                        skip_ws(bytes, pos);
                        match bytes.get(*pos) {
                            Some(b',') => *pos += 1,
                            Some(b'}') => {
                                *pos += 1;
                                return Ok(Json::Obj(map));
                            }
                            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                        }
                    }
                }
                Some(b'[') => {
                    *pos += 1;
                    let mut items = Vec::new();
                    skip_ws(bytes, pos);
                    if bytes.get(*pos) == Some(&b']') {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        items.push(parse_value(bytes, pos)?);
                        skip_ws(bytes, pos);
                        match bytes.get(*pos) {
                            Some(b',') => *pos += 1,
                            Some(b']') => {
                                *pos += 1;
                                return Ok(Json::Arr(items));
                            }
                            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                        }
                    }
                }
                Some(b'"') => {
                    *pos += 1;
                    let mut s = String::new();
                    loop {
                        match bytes.get(*pos) {
                            None => return Err("unterminated string".into()),
                            Some(b'"') => {
                                *pos += 1;
                                return Ok(Json::Str(s));
                            }
                            Some(b'\\') => {
                                *pos += 1;
                                match bytes.get(*pos) {
                                    Some(b'"') => s.push('"'),
                                    Some(b'\\') => s.push('\\'),
                                    Some(b'/') => s.push('/'),
                                    Some(b'n') => s.push('\n'),
                                    Some(b'r') => s.push('\r'),
                                    Some(b't') => s.push('\t'),
                                    Some(b'u') => {
                                        let hex = bytes
                                            .get(*pos + 1..*pos + 5)
                                            .ok_or("truncated \\u escape")?;
                                        let code = u32::from_str_radix(
                                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                            16,
                                        )
                                        .map_err(|e| e.to_string())?;
                                        s.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                                        *pos += 4;
                                    }
                                    other => return Err(format!("bad escape {other:?}")),
                                }
                                *pos += 1;
                            }
                            Some(_) => {
                                // Consume one UTF-8 scalar (continuation bytes ride
                                // along with their leading byte).
                                let start = *pos;
                                *pos += 1;
                                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                                    *pos += 1;
                                }
                                s.push_str(
                                    std::str::from_utf8(&bytes[start..*pos])
                                        .map_err(|e| e.to_string())?,
                                );
                            }
                        }
                    }
                }
                Some(b't') if bytes[*pos..].starts_with(b"true") => {
                    *pos += 4;
                    Ok(Json::Bool(true))
                }
                Some(b'f') if bytes[*pos..].starts_with(b"false") => {
                    *pos += 5;
                    Ok(Json::Bool(false))
                }
                Some(b'n') if bytes[*pos..].starts_with(b"null") => {
                    *pos += 4;
                    Ok(Json::Null)
                }
                Some(_) => {
                    let start = *pos;
                    while *pos < bytes.len()
                        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    {
                        *pos += 1;
                    }
                    std::str::from_utf8(&bytes[start..*pos])
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .map(Json::Num)
                        .ok_or(format!("bad number at byte {start}"))
                }
                None => Err("unexpected end of input".into()),
            }
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = crate::faults::splitmix64(*state);
        *state
    }

    /// A seeded JSON-ish document: mostly well-formed objects with the
    /// `/predict` fields, escapes, `\u` sequences, duplicate and unknown
    /// keys, odd whitespace and nesting, then sometimes truncated or
    /// corrupted at a random byte.
    fn document(rng: &mut u64) -> String {
        const KEYS: [&str; 9] = [
            "\"method\"",
            "\"server\"",
            "\"clients\"",
            "\"m\\u0065thod\"",
            "\"goal_ms\"",
            "\"x\\n\\\"y\\/\"",
            "\"ünï\"",
            "7",
            "\"clients\"",
        ];
        const VALUES: [&str; 16] = [
            "\"lqns\"",
            "\"AppServF\"",
            "700",
            "-1.5e3",
            "1e400",
            "+4",
            ".5",
            "true",
            "false",
            "null",
            "\"tab\\there \\u00e9\\ud800\"",
            "\"\\u+abc\"",
            "[1, [2, {}], \"s\"]",
            "{\"classes\": [{\"clients\": 3, \"type\": \"buy\"}]}",
            "\"\\q\"",
            "tru",
        ];
        const WS: [&str; 5] = ["", " ", "\n", "\t \r", "  "];
        let pick = |rng: &mut u64, n: usize| (splitmix64(rng) % n as u64) as usize;
        let mut doc = String::new();
        doc.push_str(WS[pick(rng, WS.len())]);
        if pick(rng, 10) == 0 {
            doc.push_str(VALUES[pick(rng, VALUES.len())]);
        } else {
            doc.push('{');
            let members = pick(rng, 6);
            for i in 0..members {
                if i > 0 {
                    doc.push(',');
                }
                doc.push_str(WS[pick(rng, WS.len())]);
                doc.push_str(KEYS[pick(rng, KEYS.len())]);
                doc.push_str(WS[pick(rng, WS.len())]);
                doc.push(':');
                doc.push_str(WS[pick(rng, WS.len())]);
                doc.push_str(VALUES[pick(rng, VALUES.len())]);
            }
            doc.push_str(WS[pick(rng, WS.len())]);
            doc.push('}');
        }
        doc.push_str(WS[pick(rng, WS.len())]);
        match pick(rng, 6) {
            0 => {
                let mut cut = pick(rng, doc.len() + 1);
                while !doc.is_char_boundary(cut) {
                    cut -= 1;
                }
                doc.truncate(cut);
            }
            1 => {
                let at = pick(rng, doc.len() + 1);
                if doc.is_char_boundary(at) {
                    doc.insert(at, ['x', ',', '"', '}', ':', '\\'][pick(rng, 6)]);
                }
            }
            _ => {}
        }
        doc
    }

    #[test]
    fn the_lexer_parses_exactly_as_the_recursive_parser_did() {
        let mut rng = 20040426;
        for _ in 0..20_000 {
            let doc = document(&mut rng);
            assert_eq!(Json::parse(&doc), reference::parse(&doc), "{doc:?}");
        }
    }

    #[test]
    fn read_members_agrees_with_parse_on_accept_reject_errors_and_fields() {
        let mut rng = 7;
        let (mut objects, mut errors) = (0, 0);
        for _ in 0..20_000 {
            let doc = document(&mut rng);
            let mut fields = BTreeMap::new();
            let read = read_members(&doc, |key, value| {
                fields.insert(key.decode().into_owned(), value.into_json());
            });
            match Json::parse(&doc) {
                Ok(Json::Obj(map)) => {
                    objects += 1;
                    assert_eq!(read, Ok(()), "{doc:?}");
                    assert_eq!(fields, map, "last one wins: {doc:?}");
                }
                Ok(_) => {
                    assert_eq!(read, Ok(()), "{doc:?}");
                    assert!(fields.is_empty(), "{doc:?}");
                }
                Err(e) => {
                    errors += 1;
                    assert_eq!(read, Err(e), "{doc:?}");
                }
            }
        }
        assert!(
            objects > 1_000 && errors > 1_000,
            "{objects} objects, {errors} errors"
        );
    }

    #[test]
    fn unescaped_strings_are_borrowed() {
        let mut seen = Vec::new();
        read_members(r#"{"a": "plain", "b": "t\u00e9\n"}"#, |key, value| {
            if let Value::Str(s) = value {
                seen.push((key.decode(), s.decode()));
            }
        })
        .unwrap();
        assert!(matches!(seen[0].1, Cow::Borrowed("plain")));
        assert_eq!(seen[1].1, "té\n");
        assert!(matches!(seen[1].1, Cow::Owned(_)));
    }

    #[test]
    fn the_object_writer_renders_as_the_tree_does() {
        let mut doc = Json::obj();
        doc.set("a", 1.5);
        doc.set("b", Json::Arr(vec![]));
        doc.set("c", Json::obj());
        doc.set("d", Json::Arr(vec![Json::Num(f64::NAN), Json::Num(-0.25)]));
        doc.set("e", "q\"\u{1}é");
        let mut out = Vec::new();
        write_object(&mut out, |o| {
            o.num("a", 1.5)
                .nums("b", &[])
                .obj("c", |_| {})
                .nums("d", &[f64::NAN, -0.25])
                .str("e", "q\"\u{1}é");
        });
        assert_eq!(String::from_utf8(out).unwrap(), doc.render());
    }
}
