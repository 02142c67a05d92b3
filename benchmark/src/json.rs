//! The little JSON this benchmark needs, on `std` alone (the workspace
//! builds offline): a value tree and a strict recursive-descent reader for
//! the result lines child runs print.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Number(f64),
    /// A string.
    Text(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (key order is not preserved).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut reader = Reader { bytes: text.as_bytes(), at: 0 };
    let value = reader.value()?;
    reader.skip_ws();
    if reader.at != reader.bytes.len() {
        return Err(format!("trailing input at byte {}", reader.at));
    }
    Ok(value)
}

/// Escapes `s` as the inside of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            return Ok(());
        }
        Err(format!("expected '{}' at byte {}", byte as char, self.at))
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes.get(self.at..).is_some_and(|rest| rest.starts_with(word.as_bytes())) {
            self.at += word.len();
            return Ok(value);
        }
        Err(format!("bad literal at byte {}", self.at))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at).copied() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Text),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(String::from("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at).copied() {
                None => return Err(String::from("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.at + 1).copied();
                    self.at += 2;
                    match escaped {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let hex = self.bytes.get(self.at..self.at + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                            self.at += 4;
                        }
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let text = self.bytes.get(start..self.at).and_then(|b| std::str::from_utf8(b).ok());
        text.and_then(|t| t.parse().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_result_line() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"a.b": {"value": 1.5e-3, "unit": "ms"}, "c": {"value": -2, "unit": "1/s"}}}"#;
        let v = parse(line).expect("well-formed");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(12.0));
        let metrics = v.get("metrics").and_then(Json::as_object).expect("object");
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics["a.b"].get("value").and_then(Json::as_f64), Some(0.0015));
        assert_eq!(metrics["c"].get("unit"), Some(&Json::Text(String::from("1/s"))));
    }

    #[test]
    fn reads_arrays_escapes_and_rejects_garbage() {
        let v = parse(r#"[null, false, "a\"b\\c\ndé", [], {}]"#).expect("well-formed");
        let Json::Array(items) = v else { panic!("array expected") };
        assert_eq!(items[2], Json::Text(String::from("a\"b\\c\ndé")));
        assert_eq!(items.len(), 5);
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "tru", "1 2", "\"open", "{\"a\":1,}"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let raw = "quote \" slash \\ newline \n bell \u{7}";
        let parsed = parse(&format!("\"{}\"", escape(raw))).expect("escaped text parses");
        assert_eq!(parsed, Json::Text(String::from(raw)));
    }
}
