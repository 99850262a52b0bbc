//! JSON for the benchmark (the build has no crates.io access): the string
//! escaper the result line and the span file are written with, and a
//! minimal reader the harness tests check those outputs and
//! `BENCHMARK.json` with.

/// `text` as a JSON string literal, quotes included.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
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
    out.push('"');
    out
}

#[cfg(test)]
pub use reader::{parse, Value};

#[cfg(test)]
mod reader {
    /// A parsed JSON value. Objects keep their key order.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The member `key` of an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The members of an object, in file order.
        pub fn members(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(members) => Some(members),
                _ => None,
            }
        }

        /// The elements of an array.
        #[cfg(test)]
        pub fn elements(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(elements) => Some(elements),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
        }

        fn expect(&mut self, byte: u8) -> Result<(), String> {
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at offset {}",
                    byte as char, self.pos
                ))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("bad literal at offset {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                None => Err("unexpected end of input".into()),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => self.string().map(Value::Str),
                Some(b'[') => {
                    self.pos += 1;
                    let mut elements = Vec::new();
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Value::Arr(elements));
                    }
                    loop {
                        elements.push(self.value()?);
                        self.skip_ws();
                        match self.bytes.get(self.pos) {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                return Ok(Value::Arr(elements));
                            }
                            _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                        }
                    }
                }
                Some(b'{') => {
                    self.pos += 1;
                    let mut members = Vec::new();
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.expect(b':')?;
                        members.push((key, self.value()?));
                        self.skip_ws();
                        match self.bytes.get(self.pos) {
                            Some(b',') => self.pos += 1,
                            Some(b'}') => {
                                self.pos += 1;
                                return Ok(Value::Obj(members));
                            }
                            _ => {
                                return Err(format!("expected ',' or '}}' at offset {}", self.pos))
                            }
                        }
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while self.pos < self.bytes.len()
                        && matches!(
                            self.bytes[self.pos],
                            b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                        )
                    {
                        self.pos += 1;
                    }
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .ok()
                        .and_then(|s| s.parse::<f64>().ok())
                        .map(Value::Num)
                        .ok_or_else(|| format!("bad number at offset {start}"))
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(format!("expected a string at offset {}", self.pos));
            }
            self.pos += 1;
            let mut out = Vec::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return String::from_utf8(out).map_err(|e| e.to_string());
                    }
                    Some(b'\\') => {
                        let escaped = *self.bytes.get(self.pos + 1).ok_or("unterminated escape")?;
                        self.pos += 2;
                        match escaped {
                            b'"' | b'\\' | b'/' => out.push(escaped),
                            b'n' => out.push(b'\n'),
                            b't' => out.push(b'\t'),
                            b'r' => out.push(b'\r'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or("bad \\u escape")?;
                                self.pos += 4;
                                out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                            }
                            _ => return Err(format!("unknown escape at offset {}", self.pos)),
                        }
                    }
                    Some(&b) => {
                        out.push(b);
                        self.pos += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents_and_keeps_key_order() {
        let v = parse(r#" {"b": [1, -2.5e3, true, null], "a": {"s": "x\"yé\n"}} "#).unwrap();
        let keys: Vec<&str> = v
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a"]);
        let b = v.get("b").unwrap().elements().unwrap();
        assert_eq!(b[1].as_f64(), Some(-2500.0));
        assert_eq!(b[2].as_bool(), Some(true));
        assert_eq!(b[3], Value::Null);
        assert_eq!(
            v.get("a").unwrap().get("s").unwrap().as_str(),
            Some("x\"yé\n")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "{} x", "\"open", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn quote_round_trips() {
        let text = "a \"quoted\" \\ line\nwith\ttabs\u{1}";
        assert_eq!(parse(&quote(text)).unwrap().as_str(), Some(text));
    }
}
