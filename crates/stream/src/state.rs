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
#[derive(Debug, Default)]
pub struct StateWriter {
    out: String,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
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
        if !self.out.is_empty() {
            self.out.push(';');
        }
        self.out.push_str(key);
        self.out.push('=');
        self.out.push_str(&value);
        self
    }

    /// Appends an edge-list field (see [`encode_edges`]).
    pub fn edges(&mut self, key: &str, edges: &[Edge]) -> &mut Self {
        self.field(key, encode_edges(edges))
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
    /// A reader over `text`.
    pub fn new(text: &'a str) -> Self {
        Self { parts: text.split(';').peekable() }
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
/// empty string for no edges).
pub fn encode_edges(edges: impl IntoIterator<Item = impl Borrow<Edge>>) -> String {
    let tokens: Vec<String> =
        edges.into_iter().map(|e| format!("{}-{}", e.borrow().u(), e.borrow().v())).collect();
    tokens.join(" ")
}

/// Decodes whitespace-separated [`parse_edge`] tokens.
///
/// # Errors
/// The first malformed token's [`parse_edge`] error.
pub fn decode_edges(text: &str, n: Option<usize>) -> Result<Vec<Edge>, String> {
    text.split_whitespace().map(|tok| parse_edge(tok, n)).collect()
}

/// Encodes signed tokens as `"+0-1 -0-1"` (single-space-separated, each
/// `u-v` token prefixed by its sign glyph; empty string for none).
pub fn encode_signed_list(tokens: &[SignedEdge]) -> String {
    let tokens: Vec<String> =
        tokens.iter().map(|t| format!("{}{}", t.sign.glyph(), encode_edges([t.edge]))).collect();
    tokens.join(" ")
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
/// responses, snapshot checkpoints and shard run summaries.
pub fn coloring_string(c: &Coloring) -> String {
    let cells: Vec<String> =
        (0..c.n() as u32).map(|v| c.get(v).map_or("-".to_string(), |k| k.to_string())).collect();
    cells.join(",")
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
    let cells: Vec<&str> = text.split(',').collect();
    if cells.len() != n {
        return Err(format!("coloring has {} cells, expected {n}", cells.len()));
    }
    for (v, cell) in cells.iter().enumerate() {
        if *cell == "-" {
            continue;
        }
        let color = cell.parse().map_err(|e| format!("cell {v} {cell:?}: {e}"))?;
        coloring.set(v as u32, color);
    }
    Ok(coloring)
}

/// Encodes counters as `"0,3,1"` (`,`-joined; empty string for none).
pub fn encode_u64_list(values: &[u64]) -> String {
    values.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
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

    #[test]
    fn u64_lists_round_trip() {
        let vals = vec![0u64, 3, 17, u64::MAX];
        assert_eq!(decode_u64_list(&encode_u64_list(&vals)).unwrap(), vals);
        assert_eq!(decode_u64_list("").unwrap(), Vec::<u64>::new());
        assert!(decode_u64_list("1,x").is_err());
    }

    #[test]
    fn round_trips_field_by_field() {
        let mut w = StateWriter::new();
        w.field("algo", "toy").field("curr", 3u64).edges("buf", &[Edge::new(0, 1)]);
        let text = w.finish();
        assert_eq!(text, "algo=toy;curr=3;buf=0-1");
        let mut r = StateReader::new(&text);
        assert_eq!(r.expect("algo").unwrap(), "toy");
        assert_eq!(r.u64_field("curr").unwrap(), 3);
        assert_eq!(r.edges_field("buf", 2).unwrap(), vec![Edge::new(0, 1)]);
        r.done().unwrap();
    }

    #[test]
    fn errors_name_the_offending_key() {
        let mut r = StateReader::new("algo=toy");
        r.expect("algo").unwrap();
        let err = r.u64_field("curr").unwrap_err();
        assert!(err.contains("curr"), "{err}");

        let mut r = StateReader::new("algo=toy;currr=3");
        r.expect("algo").unwrap();
        let err = r.u64_field("curr").unwrap_err();
        assert!(err.contains("curr") && err.contains("currr"), "{err}");

        let mut r = StateReader::new("algo=toy;bogus=1");
        r.expect("algo").unwrap();
        let err = r.done().unwrap_err();
        assert!(err.contains("bogus"), "{err}");
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
