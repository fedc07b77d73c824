//! Canonical `key=value;` state codec for colorer snapshots.
//!
//! The persistence subsystem serializes every colorer's *mutable*
//! algorithm state — stored edges, epoch counters, space meters — so a
//! session can be snapshotted, evicted to disk, or migrated between
//! service endpoints and then resumed **mid-stream-exact**. Constructor
//! parameters (`n`, `∆`, seed, spec knobs) are *not* part of a state
//! blob: the restoring side rebuilds the colorer from its
//! `ColorerSpec` and then replays the mutable state into it, so the
//! wire vocabulary of `open` and `restore` never fork.
//!
//! The format follows the existing compact wire convention of
//! [`EngineConfig::wire_encode`](crate::EngineConfig::wire_encode):
//! `;`-separated `key=value` fields in a **fixed order** per colorer.
//! Encoding is canonical — re-encoding a decoded state reproduces the
//! exact bytes — and decoding is sequential and total: every field is
//! demanded by name, every parse failure names the offending key, and
//! trailing/unknown keys are rejected (naming the first offender), so
//! truncated or typo'd blobs fail loudly instead of restoring a
//! half-session.

use crate::token::{Sign, SignedEdge};
use sc_graph::{Coloring, Edge};
use std::borrow::Borrow;

/// Builds a canonical state string field by field.
#[derive(Debug)]
pub struct StateWriter {
    out: String,
}

impl StateWriter {
    /// A writer whose first field is the `algo=` header naming the
    /// colorer the state belongs to; [`StateReader::new`] checks it.
    pub fn new(algo: &str) -> Self {
        let mut w = Self { out: String::new() };
        w.field("algo", algo);
        w
    }

    /// Appends `key=value`. Values must not contain `;` or `=` (the
    /// separators); every vocabulary used by the colorers — edge lists,
    /// `,`-joined counters, `|`-joined sub-lists, `-` for ⊥ — is free of
    /// both by construction.
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        let value = value.to_string();
        debug_assert!(
            !value.contains(';') && !value.contains('='),
            "state value for {key:?} contains a separator: {value:?}"
        );
        self.key(key).out.push_str(&value);
        self
    }

    /// Appends an edge-list field (see [`write_edges`]).
    pub fn edges(&mut self, key: &str, edges: &[Edge]) -> &mut Self {
        write_edges(&mut self.key(key).out, edges);
        self
    }

    /// Starts a field: the `;` separator (unless first), `key` and `=`.
    fn key(&mut self, key: &str) -> &mut Self {
        if !self.out.is_empty() {
            self.out.push(';');
        }
        self.out.push_str(key);
        self.out.push('=');
        self
    }

    /// The finished canonical string.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Sequentially consumes a [`StateWriter`]-produced string, demanding
/// each field by name.
#[derive(Debug)]
pub struct StateReader<'a> {
    parts: std::iter::Peekable<std::str::Split<'a, char>>,
}

impl<'a> StateReader<'a> {
    /// A reader over `text`, which must open with the `algo=` header
    /// [`StateWriter::new`] writes, naming `algo`.
    ///
    /// # Errors
    /// Names both colorers when the header names another one, and the
    /// key when the header is missing.
    pub fn new(text: &'a str, algo: &str) -> Result<Self, String> {
        let mut r = Self { parts: text.split(';').peekable() };
        let found = r.expect("algo")?;
        if found != algo {
            return Err(format!("state: algo {found:?} is not {algo:?}"));
        }
        Ok(r)
    }

    /// The next field, which must be named `key`; returns its raw value.
    ///
    /// # Errors
    /// Names the expected key on truncation and both keys on mismatch.
    pub fn expect(&mut self, key: &str) -> Result<&'a str, String> {
        let part = self
            .parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("state: truncated before key {key:?}"))?;
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("state: {part:?} is not key=value (expected {key:?})"))?;
        if k != key {
            return Err(format!("state: expected key {key:?}, found {k:?}"));
        }
        Ok(v)
    }

    /// The next field as a `u64`.
    pub fn u64_field(&mut self, key: &str) -> Result<u64, String> {
        let v = self.expect(key)?;
        v.parse().map_err(|e| format!("state: {key}={v:?}: {e}"))
    }

    /// The next field as a `usize`.
    pub fn usize_field(&mut self, key: &str) -> Result<usize, String> {
        let v = self.expect(key)?;
        v.parse().map_err(|e| format!("state: {key}={v:?}: {e}"))
    }

    /// The next field as an edge list over vertex ids below `n`.
    pub fn edges_field(&mut self, key: &str, n: usize) -> Result<Vec<Edge>, String> {
        let v = self.expect(key)?;
        decode_edges(v, Some(n)).map_err(|e| format!("state: {key}: {e}"))
    }

    /// Asserts the input is exhausted, naming the first leftover key.
    pub fn done(mut self) -> Result<(), String> {
        match self.parts.next().filter(|p| !p.is_empty()) {
            None => Ok(()),
            Some(part) => {
                let key = part.split('=').next().unwrap_or(part);
                Err(format!("state: unknown trailing key {key:?}"))
            }
        }
    }
}

/// Parses one `u-v` edge token — the edge-token rule of every front
/// end (protocol lines, spec files, snapshot blobs, colorer states):
/// two decimal vertex ids joined by `-`, distinct, and both `< n` when
/// a bound is given.
///
/// # Errors
/// Names the token: `edge "3-3" is a self-loop`, `edge "0-99" out of
/// range for n = 16`, `edge "5:9" is not u-v`, or a parse failure.
pub fn parse_edge(tok: &str, n: Option<usize>) -> Result<Edge, String> {
    let (a, b) = tok.split_once('-').ok_or_else(|| format!("edge {tok:?} is not u-v"))?;
    let a: u32 = a.parse().map_err(|e| format!("edge {tok:?}: {e}"))?;
    let b: u32 = b.parse().map_err(|e| format!("edge {tok:?}: {e}"))?;
    if a == b {
        return Err(format!("edge {tok:?} is a self-loop"));
    }
    if let Some(n) = n {
        if a.max(b) as usize >= n {
            return Err(format!("edge {tok:?} out of range for n = {n}"));
        }
    }
    Ok(Edge::new(a, b))
}

/// Encodes edges as `"0-1 0-2"` (single-space-separated `u-v` tokens;
/// empty string for no edges): [`write_edges`] run into a fresh string.
pub fn encode_edges(edges: impl IntoIterator<Item = impl Borrow<Edge>>) -> String {
    let mut out = String::new();
    write_edges(&mut out, edges);
    out
}

/// Appends the [`encode_edges`] text of `edges` to `out`.
pub fn write_edges(out: &mut String, edges: impl IntoIterator<Item = impl Borrow<Edge>>) {
    write_joined(out, edges, ' ', |out, e| write_edge(out, e.borrow()));
}

/// Decodes whitespace-separated [`parse_edge`] tokens.
///
/// # Errors
/// The first malformed token's [`parse_edge`] error.
pub fn decode_edges(text: &str, n: Option<usize>) -> Result<Vec<Edge>, String> {
    text.split_whitespace().map(|tok| parse_edge(tok, n)).collect()
}

/// Encodes signed tokens as `"+0-1 -0-1"` (single-space-separated, each
/// `u-v` token prefixed by its sign glyph; empty string for none):
/// [`write_signed_list`] run into a fresh string.
pub fn encode_signed_list(tokens: &[SignedEdge]) -> String {
    let mut out = String::new();
    write_signed_list(&mut out, tokens);
    out
}

/// Appends the [`encode_signed_list`] text of `tokens` to `out`.
pub fn write_signed_list(out: &mut String, tokens: &[SignedEdge]) {
    write_joined(out, tokens, ' ', |out, t| {
        out.push(t.sign.glyph());
        write_edge(out, &t.edge);
    });
}

/// Decodes whitespace-separated signed tokens, validating every edge
/// against `n` by [`parse_edge`]. A bare `u-v` token (no glyph) is an
/// insertion, so every [`encode_edges`] string also decodes here.
///
/// # Errors
/// Names the first malformed token.
pub fn decode_signed_list(text: &str, n: usize) -> Result<Vec<SignedEdge>, String> {
    text.split_whitespace()
        .map(|tok| {
            let (sign, pair) = match tok.as_bytes().first() {
                Some(b'+') => (Sign::Insert, &tok[1..]),
                Some(b'-') => (Sign::Delete, &tok[1..]),
                _ => (Sign::Insert, tok),
            };
            let edge = parse_edge(pair, Some(n)).map_err(|e| format!("token {tok:?}: {e}"))?;
            Ok(SignedEdge { edge, sign })
        })
        .collect()
}

/// Renders a coloring as `"0,1,-,2"` (one `,`-joined cell per vertex;
/// `-` marks an uncolored vertex) — the one coloring text of protocol
/// responses, snapshot checkpoints and shard run summaries:
/// [`write_coloring`] run into a fresh string.
pub fn coloring_string(c: &Coloring) -> String {
    let mut out = String::new();
    write_coloring(&mut out, c);
    out
}

/// Appends the [`coloring_string`] text of `c` to `out`.
pub fn write_coloring(out: &mut String, c: &Coloring) {
    out.reserve(2 * c.n()); // every cell takes at least one byte and a comma
    write_joined(out, 0..c.n() as u32, ',', |out, v| match c.get(v) {
        Some(color) => write_u64(out, color),
        None => out.push('-'),
    });
}

/// Parses a [`coloring_string`] back into a coloring over `n` vertices.
///
/// # Errors
/// Names the malformed cell or the length mismatch.
pub fn parse_coloring(text: &str, n: usize) -> Result<Coloring, String> {
    let mut coloring = Coloring::empty(n);
    if n == 0 && text.is_empty() {
        return Ok(coloring);
    }
    // Count before parsing, so a length mismatch is reported ahead of
    // any bad cell.
    let cells = text.bytes().filter(|&b| b == b',').count() + 1;
    if cells != n {
        return Err(format!("coloring has {cells} cells, expected {n}"));
    }
    for (v, cell) in text.split(',').enumerate() {
        if cell == "-" {
            continue;
        }
        let color = cell.parse().map_err(|e| format!("cell {v} {cell:?}: {e}"))?;
        coloring.set(v as u32, color);
    }
    Ok(coloring)
}

/// Encodes counters as `"0,3,1"` (`,`-joined; empty string for none):
/// [`write_u64_list`] run into a fresh string.
pub fn encode_u64_list(values: &[u64]) -> String {
    let mut out = String::new();
    write_u64_list(&mut out, values);
    out
}

/// Appends the [`encode_u64_list`] text of `values` to `out`.
pub fn write_u64_list(out: &mut String, values: &[u64]) {
    write_joined(out, values, ',', |out, &x| write_u64(out, x));
}

/// Appends `items` to `out`, `sep` between consecutive ones — the one
/// list layout behind every writer above.
fn write_joined<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    sep: char,
    mut write: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        write(out, item);
    }
}

/// Appends one `u-v` token.
fn write_edge(out: &mut String, e: &Edge) {
    write_u64(out, u64::from(e.u()));
    out.push('-');
    write_u64(out, u64::from(e.v()));
}

/// Appends the decimal digits of `x` (the same text as `x.to_string()`),
/// formatted on the stack: the one integer formatter of every writer
/// here (colors are `u64`, vertex ids widen to it).
fn write_u64(out: &mut String, mut x: u64) {
    if x < 10 {
        out.push(char::from(b'0' + x as u8));
        return;
    }
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Decodes an [`encode_u64_list`] string.
pub fn decode_u64_list(text: &str) -> Result<Vec<u64>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',').map(|v| v.parse().map_err(|e| format!("counter {v:?}: {e}"))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocate-and-join encoders the writers replaced, frozen here
    /// as the byte-for-byte reference.
    mod frozen {
        use super::*;

        pub fn encode_edges(edges: &[Edge]) -> String {
            let tokens: Vec<String> =
                edges.iter().map(|e| format!("{}-{}", e.u(), e.v())).collect();
            tokens.join(" ")
        }

        pub fn encode_signed_list(tokens: &[SignedEdge]) -> String {
            let tokens: Vec<String> = tokens
                .iter()
                .map(|t| format!("{}{}", t.sign.glyph(), encode_edges(&[t.edge])))
                .collect();
            tokens.join(" ")
        }

        pub fn coloring_string(c: &Coloring) -> String {
            let cells: Vec<String> = (0..c.n() as u32)
                .map(|v| c.get(v).map_or("-".to_string(), |k| k.to_string()))
                .collect();
            cells.join(",")
        }

        pub fn encode_u64_list(values: &[u64]) -> String {
            values.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        }
    }

    /// A `u64` biased toward the formatter's edge cases: 0, one digit,
    /// every power-of-ten boundary, `u64::MAX`, and arbitrary values.
    fn value(pick: u8, raw: u64) -> u64 {
        let power = 10u64.pow((raw % 20) as u32);
        match pick % 7 {
            0 => 0,
            1 => raw % 10,
            2 => power,
            3 => power - 1,
            4 => u64::MAX,
            _ => raw,
        }
    }

    /// A vertex id biased toward one digit and toward `u32::MAX`.
    fn vertex(raw: u32) -> u32 {
        match raw % 4 {
            0 => raw % 10,
            1 => u32::MAX - raw % 2,
            _ => raw,
        }
    }

    /// The edge `a-b`, nudging `b` off `a` (edges are never self-loops).
    fn edge(a: u32, b: u32) -> Edge {
        Edge::new(a, if a == b { b.wrapping_add(1) } else { b })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn colorings_match_the_frozen_join(
            cells in prop::collection::vec((any::<u8>(), any::<u64>()), 0..40),
        ) {
            // pick 6 and 7 leave the vertex uncolored.
            let coloring = Coloring::from_vec(
                cells.iter().map(|&(pick, raw)| (pick % 8 < 6).then(|| value(pick, raw))).collect(),
            );
            let text = coloring_string(&coloring);
            prop_assert_eq!(&text, &frozen::coloring_string(&coloring));
            prop_assert_eq!(parse_coloring(&text, coloring.n()), Ok(coloring.clone()));
            // The writer appends: existing text is kept, never cleared.
            let mut out = String::from("x");
            write_coloring(&mut out, &coloring);
            prop_assert_eq!(out, format!("x{text}"));
        }

        #[test]
        fn edge_lists_match_the_frozen_join(
            pairs in prop::collection::vec((any::<u32>(), any::<u32>()), 0..24),
        ) {
            let edges: Vec<Edge> = pairs.iter().map(|&(a, b)| edge(vertex(a), vertex(b))).collect();
            let text = encode_edges(&edges);
            prop_assert_eq!(&text, &frozen::encode_edges(&edges));
            prop_assert_eq!(decode_edges(&text, None), Ok(edges));
        }

        #[test]
        fn signed_lists_match_the_frozen_join(
            tokens in prop::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 0..24),
        ) {
            let tokens: Vec<SignedEdge> = tokens
                .iter()
                .map(|&(insert, a, b)| {
                    let e = edge(a % 1000, b % 1000);
                    if insert { SignedEdge::insert(e) } else { SignedEdge::delete(e) }
                })
                .collect();
            let text = encode_signed_list(&tokens);
            prop_assert_eq!(&text, &frozen::encode_signed_list(&tokens));
            prop_assert_eq!(decode_signed_list(&text, 1001), Ok(tokens));
        }

        #[test]
        fn u64_lists_match_the_frozen_join(
            raw in prop::collection::vec((any::<u8>(), any::<u64>()), 0..24),
        ) {
            let values: Vec<u64> = raw.iter().map(|&(pick, raw)| value(pick, raw)).collect();
            let text = encode_u64_list(&values);
            prop_assert_eq!(&text, &frozen::encode_u64_list(&values));
            prop_assert_eq!(decode_u64_list(&text), Ok(values));
        }
    }

    #[test]
    fn coloring_errors_keep_their_texts_and_order() {
        assert_eq!(parse_coloring("", 0), Ok(Coloring::empty(0)));
        assert_eq!(coloring_string(&Coloring::empty(0)), "");
        // A length mismatch is reported before any bad cell.
        assert_eq!(parse_coloring("x,1", 3).unwrap_err(), "coloring has 2 cells, expected 3");
        assert_eq!(parse_coloring("", 2).unwrap_err(), "coloring has 1 cells, expected 2");
        assert_eq!(
            parse_coloring("0,-,x", 3).unwrap_err(),
            "cell 2 \"x\": invalid digit found in string"
        );
        assert_eq!(
            parse_coloring("0,,1", 3).unwrap_err(),
            "cell 1 \"\": cannot parse integer from empty string"
        );
    }

    #[test]
    fn u64_lists_round_trip() {
        let vals = vec![0u64, 3, 17, u64::MAX];
        assert_eq!(decode_u64_list(&encode_u64_list(&vals)).unwrap(), vals);
        assert_eq!(decode_u64_list("").unwrap(), Vec::<u64>::new());
        assert!(decode_u64_list("1,x").is_err());
    }

    #[test]
    fn round_trips_field_by_field() {
        let mut w = StateWriter::new("toy");
        w.field("curr", 3u64).edges("buf", &[Edge::new(0, 1)]);
        let text = w.finish();
        assert_eq!(text, "algo=toy;curr=3;buf=0-1");
        let mut r = StateReader::new(&text, "toy").unwrap();
        assert_eq!(r.u64_field("curr").unwrap(), 3);
        assert_eq!(r.edges_field("buf", 2).unwrap(), vec![Edge::new(0, 1)]);
        r.done().unwrap();
    }

    #[test]
    fn errors_name_the_offending_key() {
        let mut r = StateReader::new("algo=toy", "toy").unwrap();
        let err = r.u64_field("curr").unwrap_err();
        assert!(err.contains("curr"), "{err}");

        let mut r = StateReader::new("algo=toy;currr=3", "toy").unwrap();
        let err = r.u64_field("curr").unwrap_err();
        assert!(err.contains("curr") && err.contains("currr"), "{err}");

        let r = StateReader::new("algo=toy;bogus=1", "toy").unwrap();
        let err = r.done().unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn the_algo_header_must_name_the_reader_s_colorer() {
        let err = StateReader::new("algo=other;curr=3", "toy").unwrap_err();
        assert_eq!(err, r#"state: algo "other" is not "toy""#);
        let err = StateReader::new("curr=3", "toy").unwrap_err();
        assert_eq!(err, r#"state: expected key "algo", found "curr""#);
        let err = StateReader::new("", "toy").unwrap_err();
        assert_eq!(err, r#"state: truncated before key "algo""#);
    }

    #[test]
    fn signed_lists_round_trip_and_validate() {
        let tokens = vec![
            SignedEdge::insert(Edge::new(0, 1)),
            SignedEdge::delete(Edge::new(0, 1)),
            SignedEdge::insert(Edge::new(2, 5)),
        ];
        let text = encode_signed_list(&tokens);
        assert_eq!(text, "+0-1 -0-1 +2-5");
        assert_eq!(decode_signed_list(&text, 6).unwrap(), tokens);
        // Bare edge lists decode as insertions (backward vocabulary).
        assert_eq!(
            decode_signed_list("0-1 2-5", 6).unwrap(),
            vec![SignedEdge::insert(Edge::new(0, 1)), SignedEdge::insert(Edge::new(2, 5))]
        );
        assert_eq!(decode_signed_list("", 6).unwrap(), Vec::new());
        assert!(decode_signed_list("+0-9", 6).is_err(), "range check applies");
        assert!(decode_signed_list("-0-x", 6).is_err());
        assert!(decode_signed_list("~0-1", 6).is_err(), "unknown glyph is not a sign");
        // Any whitespace separates tokens; a self-loop is an error naming it.
        assert_eq!(decode_signed_list("+0-1\t -0-1\n+2-5", 6).unwrap(), tokens);
        let err = decode_signed_list("+0-1 -3-3", 6).unwrap_err();
        assert_eq!(err, "token \"-3-3\": edge \"3-3\" is a self-loop");
    }

    #[test]
    fn edge_lists_round_trip_and_validate() {
        let edges = vec![Edge::new(0, 1), Edge::new(2, 5), Edge::new(1, 3)];
        let text = encode_edges(&edges);
        assert_eq!(text, "0-1 2-5 1-3");
        assert_eq!(decode_edges(&text, Some(6)).unwrap(), edges);
        assert_eq!(decode_edges("", Some(6)).unwrap(), Vec::new());
        assert!(decode_edges(&text, Some(5)).is_err(), "endpoint 5 out of range");
        assert!(decode_edges("0-x", Some(6)).is_err());
        assert!(decode_edges("01", Some(6)).is_err());
        assert_eq!(decode_edges("9-12", None).unwrap(), vec![Edge::new(9, 12)], "unbounded");
        // Any whitespace separates tokens; errors name the token.
        assert_eq!(decode_edges("0-1  2-5\t1-3 ", Some(6)).unwrap(), edges);
        assert_eq!(decode_edges("0-1 3-3", None).unwrap_err(), "edge \"3-3\" is a self-loop");
        assert_eq!(
            decode_edges("0-9", Some(6)).unwrap_err(),
            "edge \"0-9\" out of range for n = 6"
        );
    }
}
