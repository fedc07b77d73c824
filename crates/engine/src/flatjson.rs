//! Flat JSON: the workspace's serde-free wire format.
//!
//! The container vendors no serde (see `crates/compat/README.md`), and
//! everything this workspace serializes — the perf-trajectory files
//! (`BENCH_engine.json`, `BENCH_query.json`, `ci/bench_baselines.json`),
//! shard spec files, and shard worker outputs — is the same tiny shape:
//! an array of flat objects whose values are strings, numbers, or
//! booleans. This module parses and emits exactly that shape (nested
//! containers are rejected loudly), which is all the `bench_gate`
//! regression gate and the [`shard`](crate::shard) wire format need.
//! Drop-in replaceable by serde_json when network exists.
//!
//! Guarantees:
//!
//! * **Canonical encoding** — [`encode_array`] emits fields in sorted key
//!   order (objects are [`BTreeMap`]s) with a fixed layout, so equal
//!   values produce byte-identical text. The shard determinism law
//!   ("merged output is byte-identical to the single-process run")
//!   rests on this.
//! * **Exact round-trips** — `parse_array(&encode_array(&objs)) == objs`
//!   for every representable value: strings are escaped/unescaped
//!   symmetrically (UTF-8 preserved), `u64`s are kept integral
//!   ([`Scalar::Uint`], no `f64` precision cliff at 2⁵³ — seeds are
//!   `u64`s), and floats are printed in shortest-round-trip form.
//! * **Non-finite floats are unrepresentable** — JSON has no NaN/∞;
//!   [`encode_array`] panics on them rather than silently corrupting a
//!   spec file.
//! * **Duplicate keys are parse errors** — last-write-wins would let a
//!   corrupted spec line silently drop a field; the parser rejects the
//!   object naming the repeated key.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A scalar field of a flat object.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A JSON string (escapes: `\"`, `\\`, `\n`, `\t`, `\r`, and `\uXXXX`
    /// for the remaining control characters).
    Str(String),
    /// A JSON number with a fractional or exponent marker, kept as `f64`.
    Num(f64),
    /// A non-negative integer JSON number, kept exact (seeds are `u64`s;
    /// `f64` would corrupt values above 2⁵³).
    Uint(u64),
    /// A JSON boolean.
    Bool(bool),
}

impl Scalar {
    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value ([`Scalar::Num`] or [`Scalar::Uint`]), if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(x) => Some(*x),
            Scalar::Uint(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The exact integer value, if this is a [`Scalar::Uint`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Uint(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// One flat object: field name → scalar value, order-insensitive.
pub type FlatObject = BTreeMap<String, Scalar>;

/// Parses `[ {..}, {..}, … ]` where every object is flat and every value
/// is a string, number, or boolean.
///
/// # Errors
/// Returns a human-readable description of the first syntax problem —
/// callers surface it verbatim, so messages name what was expected.
pub fn parse_array(text: &str) -> Result<Vec<FlatObject>, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'[')?;
    let mut out = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b']') {
        return Ok(out);
    }
    loop {
        p.skip_ws();
        out.push(p.object()?);
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b']') => break,
            other => return Err(format!("expected ',' or ']' after object, got {other:?}")),
        }
    }
    Ok(out)
}

/// Encodes objects as a flat JSON array: one object per line, fields in
/// sorted key order, a trailing newline. The output is canonical (equal
/// inputs ⇒ byte-identical text) and exactly invertible by
/// [`parse_array`].
///
/// # Panics
/// Panics on a non-finite [`Scalar::Num`] — JSON cannot represent it,
/// and a wire format that silently writes `null` would corrupt shard
/// spec files.
pub fn encode_array(objs: &[FlatObject]) -> String {
    if objs.is_empty() {
        return "[]\n".to_string();
    }
    let mut out = String::from("[\n");
    for (i, obj) in objs.iter().enumerate() {
        out.push_str("  ");
        encode_object_into(&mut out, obj);
        out.push_str(if i + 1 < objs.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Encodes one flat object as a single canonical line (sorted keys, no
/// trailing newline) — the unit of the `sc-service` line protocol, where
/// every request and response is one such object per line. Equal objects
/// encode to byte-identical text; exactly invertible by [`parse_object`].
///
/// # Panics
/// Panics on a non-finite [`Scalar::Num`], like [`encode_array`].
pub fn encode_object(obj: &FlatObject) -> String {
    let mut out = String::new();
    encode_object_into(&mut out, obj);
    out
}

fn encode_object_into(out: &mut String, obj: &FlatObject) {
    out.push('{');
    for (j, (key, value)) in obj.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        encode_string(out, key);
        out.push(':');
        match value {
            Scalar::Str(s) => encode_string(out, s),
            Scalar::Num(x) => {
                assert!(x.is_finite(), "non-finite float {x} is not representable in JSON");
                // Debug formatting is shortest-round-trip and always
                // carries a '.' or exponent, so parsing yields `Num`
                // (not `Uint`) and the exact same bits.
                let _ = write!(out, "{x:?}");
            }
            Scalar::Uint(x) => {
                let _ = write!(out, "{x}");
            }
            Scalar::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
}

/// Parses exactly one flat object (`{…}` with optional surrounding
/// whitespace; anything after the closing brace is an error).
///
/// # Errors
/// Returns a human-readable description of the first syntax problem.
pub fn parse_object(text: &str) -> Result<FlatObject, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let obj = p.object()?;
    p.skip_ws();
    match p.peek() {
        None => Ok(obj),
        Some(b) => Err(format!("trailing {:?} after object at byte {}", b as char, p.pos)),
    }
}

/// Appends `s` as a JSON string literal. Each maximal run of bytes that
/// needs no escape is copied with one `push_str`; every escaped byte is
/// ASCII, so run boundaries always fall on `char` boundaries.
fn encode_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\t' => Some("\\t"),
            b'\r' => Some("\\r"),
            // RFC 8259 forbids raw control characters in strings; the
            // remaining ones get the generic \u escape so external tools
            // (serde_json, jq) can read our files.
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => {
                Err(format!("expected {:?} at byte {}, got {other:?}", want as char, self.pos))
            }
        }
    }

    /// Consumes `word` if it is next in the input.
    fn eat(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn object(&mut self) -> Result<FlatObject, String> {
        self.expect(b'{')?;
        let mut obj = FlatObject::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(obj);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = match self.peek() {
                Some(b'"') => Scalar::Str(self.string()?),
                Some(b't' | b'f') => {
                    if self.eat("true") {
                        Scalar::Bool(true)
                    } else if self.eat("false") {
                        Scalar::Bool(false)
                    } else {
                        return Err(format!("field {key:?}: expected true/false"));
                    }
                }
                Some(b'{' | b'[') => {
                    return Err(format!("field {key:?}: nested containers are not flat JSON"))
                }
                _ => self.number()?,
            };
            // Last-write-wins would let a corrupted or hand-edited line
            // like {"seed":1,"seed":2} silently drop a field — reject it
            // naming the key instead.
            if obj.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key:?} in object"));
            }
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}' in object, got {other:?}")),
            }
        }
        Ok(obj)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut s: Vec<u8> = Vec::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            s.extend_from_slice(&rest[..run]);
            self.pos += run;
            match self.next() {
                Some(b'"') => {
                    return String::from_utf8(s)
                        .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))
                }
                Some(_backslash) => match self.next() {
                    Some(c @ (b'"' | b'\\')) => s.push(c),
                    Some(b'n') => s.push(b'\n'),
                    Some(b't') => s.push(b'\t'),
                    Some(b'r') => s.push(b'\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or("\\u escape needs 4 hex digits")?;
                            code = code * 16 + d;
                        }
                        let c = char::from_u32(code)
                            .ok_or(format!("\\u{code:04x} is not a scalar value"))?;
                        let mut buf = [0u8; 4];
                        s.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Scalar, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        // Integral tokens stay exact; anything with a fraction marker,
        // exponent, or sign (or too big for u64) becomes a float.
        if !text.contains(['.', 'e', 'E', '-', '+']) {
            if let Ok(x) = text.parse::<u64>() {
                return Ok(Scalar::Uint(x));
            }
        }
        let x =
            text.parse::<f64>().map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))?;
        // `str::parse` maps overflowing literals like 1e999 to ±inf; a
        // wire format whose encoder refuses non-finite values must not
        // smuggle them in through the parser either (re-encoding such a
        // value would panic — decode errors instead).
        if !x.is_finite() {
            return Err(format!("number {text:?} at byte {start} overflows f64"));
        }
        Ok(Scalar::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-`char` string encoder the run-copying one replaced,
    /// frozen here as the byte-for-byte reference.
    fn frozen_encode_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                _ => out.push(c),
            }
        }
        out.push('"');
    }

    /// One character drawn toward the escape set: `"`, `\`, every
    /// byte 0x00–0x1f, DEL, multibyte UTF-8 of each width, and plain
    /// ASCII.
    fn pick_char(pick: u8, raw: u32) -> char {
        match pick % 8 {
            0 => '"',
            1 => '\\',
            2 | 3 => char::from((raw % 0x20) as u8),
            4 => '\u{7f}',
            5 => ['é', '∆', '😀'][(raw % 3) as usize],
            _ => char::from(b' ' + (raw % 95) as u8),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn string_encoding_matches_the_frozen_per_char_encoder(
            picks in prop::collection::vec((any::<u8>(), any::<u32>()), 0..24),
        ) {
            let text: String = picks.iter().map(|&(pick, raw)| pick_char(pick, raw)).collect();
            let (mut run, mut frozen) = (String::new(), String::new());
            encode_string(&mut run, &text);
            frozen_encode_string(&mut frozen, &text);
            prop_assert_eq!(&run, &frozen, "text {:?}", text);
            let mut obj = FlatObject::new();
            obj.insert(text.clone(), Scalar::Str(text.clone()));
            prop_assert_eq!(parse_object(&encode_object(&obj)), Ok(obj));
        }
    }

    #[test]
    fn escapes_at_the_ends_of_a_run_keep_the_run_whole() {
        let mut out = String::new();
        encode_string(&mut out, "\"a∆\u{7f}b\u{1}");
        assert_eq!(out, "\"\\\"a∆\u{7f}b\\u0001\"");
        out.clear();
        encode_string(&mut out, "");
        assert_eq!(out, "\"\"");
        assert_eq!(
            parse_object("{\"k\":\"\\n\\u0041bc\\\\\"}").unwrap()["k"].as_str(),
            Some("\nAbc\\")
        );
        assert_eq!(parse_object("{\"k\":\"abc").unwrap_err(), "unterminated string");
    }

    #[test]
    fn parses_the_bench_engine_shape() {
        let text = r#"[
  {"algo":"alg2","n":3000,"delta":32,"m":46724,"per_edge_ms":120.5,"batched_ms":41.25,"chunk":256,"speedup":2.921},
  {"algo":"alg3","n":3000,"delta":32,"m":46724,"per_edge_ms":99.0,"batched_ms":52.0,"chunk":256,"speedup":1.903}
]
"#;
        let objs = parse_array(text).unwrap();
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0]["algo"].as_str(), Some("alg2"));
        assert_eq!(objs[0]["speedup"].as_f64(), Some(2.921));
        assert_eq!(objs[1]["n"].as_f64(), Some(3000.0));
        assert_eq!(objs[1]["n"].as_u64(), Some(3000));
        assert!(objs[0]["algo"].as_f64().is_none());
        assert!(objs[0]["speedup"].as_str().is_none());
        assert!(objs[0]["speedup"].as_u64().is_none(), "floats never masquerade as ints");
    }

    #[test]
    fn empty_array_and_object() {
        assert_eq!(parse_array("[]").unwrap(), Vec::new());
        assert_eq!(parse_array(" [ { } ] ").unwrap(), vec![FlatObject::new()]);
    }

    #[test]
    fn negative_and_exponent_numbers() {
        let objs = parse_array(r#"[{"x":-1.5e-3,"y":-7}]"#).unwrap();
        assert_eq!(objs[0]["x"].as_f64(), Some(-0.0015));
        assert_eq!(objs[0]["y"].as_f64(), Some(-7.0));
        assert!(objs[0]["y"].as_u64().is_none(), "negative numbers are not Uints");
    }

    #[test]
    fn booleans_parse_and_reject_typos() {
        let objs = parse_array(r#"[{"a":true,"b":false}]"#).unwrap();
        assert_eq!(objs[0]["a"].as_bool(), Some(true));
        assert_eq!(objs[0]["b"].as_bool(), Some(false));
        assert!(objs[0]["a"].as_f64().is_none());
        assert!(parse_array(r#"[{"a":tru}]"#).is_err());
    }

    #[test]
    fn u64_values_survive_exactly() {
        let objs = parse_array(&format!(r#"[{{"seed":{}}}]"#, u64::MAX)).unwrap();
        assert_eq!(objs[0]["seed"].as_u64(), Some(u64::MAX));
        // Beyond u64: falls back to f64 instead of failing.
        let objs = parse_array(r#"[{"big":18446744073709551616}]"#).unwrap();
        assert_eq!(objs[0]["big"].as_f64(), Some(1.8446744073709552e19));
    }

    #[test]
    fn rejects_nesting_and_garbage() {
        assert!(parse_array(r#"[{"x":{}}]"#).unwrap_err().contains("nested"));
        assert!(parse_array("{}").is_err());
        assert!(parse_array(r#"[{"x":1} {"y":2}]"#).is_err());
        assert!(parse_array(r#"[{"x":"unterminated]"#).is_err());
    }

    #[test]
    fn encode_round_trips_every_scalar_kind() {
        let mut obj = FlatObject::new();
        obj.insert("label".into(), Scalar::Str("robust ∆^2.5 \"x\" \\ tab\there".into()));
        obj.insert("seed".into(), Scalar::Uint(u64::MAX));
        obj.insert("p".into(), Scalar::Num(0.1));
        obj.insert("neg_zero".into(), Scalar::Num(-0.0));
        obj.insert("subnormal".into(), Scalar::Num(5e-324));
        obj.insert("huge".into(), Scalar::Num(1.7976931348623157e308));
        obj.insert("whole".into(), Scalar::Num(3.0));
        obj.insert("on".into(), Scalar::Bool(true));
        obj.insert("off".into(), Scalar::Bool(false));
        let objs = vec![obj, FlatObject::new()];
        let text = encode_array(&objs);
        let back = parse_array(&text).unwrap();
        assert_eq!(back, objs);
        // -0.0 == 0.0 under PartialEq; check the sign bit survived too.
        assert_eq!(back[0]["neg_zero"].as_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        // Whole-valued floats must come back as floats, not Uints.
        assert_eq!(back[0]["whole"], Scalar::Num(3.0));
    }

    #[test]
    fn control_characters_are_escaped_to_valid_json() {
        let mut obj = FlatObject::new();
        obj.insert("label".into(), Scalar::Str("a\rb\u{1}c\u{1f}d".into()));
        let objs = vec![obj];
        let text = encode_array(&objs);
        // RFC 8259: no raw control characters may appear in the output.
        assert!(
            !text.bytes().any(|b| b < 0x20 && b != b'\n'),
            "raw control byte leaked into {text:?}"
        );
        assert!(text.contains("\\r") && text.contains("\\u0001") && text.contains("\\u001f"));
        assert_eq!(parse_array(&text).unwrap(), objs);
        // Explicit \u escapes parse too (including non-control ones).
        let objs = parse_array(r#"[{"x":"\u0041\u2206"}]"#).unwrap();
        assert_eq!(objs[0]["x"].as_str(), Some("A∆"));
        assert!(parse_array(r#"[{"x":"\u12"}]"#).is_err());
    }

    #[test]
    fn encoding_is_canonical() {
        let mut a = FlatObject::new();
        a.insert("z".into(), Scalar::Uint(1));
        a.insert("a".into(), Scalar::Uint(2));
        let mut b = FlatObject::new();
        b.insert("a".into(), Scalar::Uint(2));
        b.insert("z".into(), Scalar::Uint(1));
        assert_eq!(encode_array(&[a]), encode_array(&[b]), "insertion order must not matter");
        assert_eq!(encode_array(&[]), "[]\n");
    }

    #[test]
    fn overflowing_number_literals_are_parse_errors_not_infinities() {
        // 1e999 parses to +inf under str::parse; the wire format must
        // reject it (re-encoding an inf would panic downstream).
        for bad in [r#"[{"x":1e999}]"#, r#"[{"x":-1e999}]"#, r#"[{"x":1e100000}]"#] {
            let e = parse_array(bad).unwrap_err();
            assert!(e.contains("overflows"), "{bad}: {e}");
        }
        // The largest finite values still parse.
        assert!(parse_array(r#"[{"x":1.7976931348623157e308}]"#).is_ok());
    }

    #[test]
    fn duplicate_keys_are_rejected_naming_the_key() {
        // Last-write-wins would mask a corrupted spec line; the parser
        // must refuse and say which key collided.
        for bad in [r#"[{"seed":1,"seed":2}]"#, r#"[{"a":1,"b":2,"a":3}]"#] {
            let e = parse_array(bad).unwrap_err();
            assert!(e.contains("duplicate key"), "{bad}: {e}");
        }
        let e = parse_object(r#"{"n":10,"n":11}"#).unwrap_err();
        assert!(e.contains("duplicate key \"n\""), "{e}");
        // Same key spelled differently is fine.
        assert!(parse_object(r#"{"n":10,"N":11}"#).is_ok());
    }

    #[test]
    fn single_objects_round_trip_on_one_line() {
        let mut obj = FlatObject::new();
        obj.insert("cmd".into(), Scalar::Str("open".into()));
        obj.insert("n".into(), Scalar::Uint(100));
        obj.insert("p".into(), Scalar::Num(0.5));
        obj.insert("ok".into(), Scalar::Bool(true));
        let line = encode_object(&obj);
        assert!(!line.contains('\n'), "line protocol objects must be single lines");
        assert_eq!(line, r#"{"cmd":"open","n":100,"ok":true,"p":0.5}"#);
        assert_eq!(parse_object(&line).unwrap(), obj);
        // Whitespace tolerated; trailing garbage is not.
        assert_eq!(parse_object(&format!("  {line}  ")).unwrap(), obj);
        assert!(parse_object(&format!("{line} x")).unwrap_err().contains("trailing"));
        assert!(parse_object("").is_err());
        assert!(parse_object("[]").is_err());
        assert_eq!(parse_object("{}").unwrap(), FlatObject::new());
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn non_finite_floats_are_rejected_at_encode() {
        let mut obj = FlatObject::new();
        obj.insert("x".into(), Scalar::Num(f64::NAN));
        encode_array(&[obj]);
    }
}
