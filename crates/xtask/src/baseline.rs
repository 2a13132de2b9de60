//! The analysis ratchet file: `analysis_baseline.json`.
//!
//! The baseline pins the accepted finding set. Every entry carries a
//! *written justification* — an empty justification is itself a failure,
//! so accepting a finding always costs a sentence of explanation in
//! review. `cargo xtask analyze` fails on any finding not in the baseline
//! (the ratchet only tightens) and warns on stale entries so fixed
//! findings get garbage-collected.
//!
//! The workspace has no serde; the file format is a fixed JSON shape read
//! and written by the minimal parser below:
//!
//! ```json
//! {
//!   "version": 1,
//!   "findings": [
//!     { "id": "panic-reach:crates/x/src/a.rs:Type::fn:unwrap",
//!       "justification": "why this is fine" }
//!   ]
//! }
//! ```

use std::collections::BTreeMap;
use std::path::Path;

/// Parsed baseline: finding id -> justification.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    pub findings: BTreeMap<String, String>,
}

impl Baseline {
    /// Load from `path`; a missing file is an empty baseline (fresh repos
    /// ratchet from zero).
    pub fn load(path: &Path) -> Result<Baseline, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Baseline::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    pub fn parse(text: &str) -> Result<Baseline, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object().ok_or("baseline root must be an object")?;
        let mut out = Baseline::default();
        if let Some(fs) = obj.get("findings") {
            let arr = fs.as_array().ok_or("\"findings\" must be an array")?;
            for entry in arr {
                let e = entry.as_object().ok_or("finding entries must be objects")?;
                let id = e
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("finding entry missing string \"id\"")?;
                let just = e
                    .get("justification")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("finding {id:?} missing string \"justification\""))?;
                if out.findings.insert(id.to_owned(), just.to_owned()).is_some() {
                    return Err(format!("duplicate baseline entry for {id:?}"));
                }
            }
        }
        Ok(out)
    }

    /// Serialize in a stable, diff-friendly order (findings sorted by id).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"version\": 1,\n  \"findings\": [");
        let mut first = true;
        for (id, just) in &self.findings {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str("\n    { \"id\": ");
            json_string(&mut s, id);
            s.push_str(",\n      \"justification\": ");
            json_string(&mut s, just);
            s.push_str(" }");
        }
        if !first {
            s.push('\n');
            s.push_str("  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
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
}

/// A just-enough JSON value. No serde in the workspace; this covers the
/// baseline file shape (and rejects everything malformed with a message).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the full UTF-8 character.
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Array(out));
        }
        loop {
            out.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Array(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Object(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            let val = self.value()?;
            out.insert(key, val);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Object(out));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_baseline() {
        let mut b = Baseline::default();
        b.findings.insert(
            "panic-reach:crates/x/src/a.rs:T::f:unwrap".into(),
            "guarded by catalog invariant \"ids are dense\"".into(),
        );
        b.findings
            .insert("error-drop:crates/y/src/b.rs:g:ok-drop#0".into(), "best-effort fsync".into());
        let text = b.to_json();
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.findings, b.findings);
    }

    #[test]
    fn empty_baseline_serializes_and_parses() {
        let b = Baseline::default();
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert!(parsed.findings.is_empty());
    }

    #[test]
    fn missing_justification_is_a_parse_error() {
        let text = r#"{ "version": 1, "findings": [ { "id": "x" } ] }"#;
        let err = Baseline::parse(text).unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let text = r#"{ "findings": [
            { "id": "x", "justification": "a" },
            { "id": "x", "justification": "b" } ] }"#;
        assert!(Baseline::parse(text).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn escapes_survive_roundtrip() {
        let mut b = Baseline::default();
        b.findings.insert("id with \"quotes\"".into(), "line one\nline two\ttabbed".into());
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed.findings, b.findings);
    }

    #[test]
    fn malformed_json_reports_offset() {
        assert!(Json::parse("{ \"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }
}
