//! Multiplicity tracking for turnstile streams.
//!
//! A dynamic (insert/delete) stream is only well-formed if every deletion
//! removes an edge that is currently present: the turnstile model of the
//! sparse-recovery literature requires multiplicities to stay
//! non-negative, and a deletion of a never-inserted edge is almost always
//! a producer bug. [`DynamicSupport`] is the engine-side referee for that
//! policy — it tracks the multiplicity of every edge the session has
//! accepted and rejects an under-flowing deletion *loudly, naming the
//! edge*, before the token ever reaches a colorer.
//!
//! It is **harness bookkeeping**, not algorithm state: sessions maintain
//! it only for colorers that
//! [`supports_deletions`](crate::StreamingColorer::supports_deletions),
//! and it is never charged to any colorer's
//! [`SpaceMeter`](crate::SpaceMeter) (the whole point of a sketch-based
//! dynamic colorer is that *it* does not store the support — the referee
//! may).

use crate::token::{Sign, SignedEdge};
use sc_graph::Edge;
use std::collections::BTreeMap;

/// The live edge multiset of a turnstile stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynamicSupport {
    /// Multiplicity per edge; entries are strictly positive (an edge
    /// deleted down to zero leaves the map, keeping the encoding
    /// canonical).
    counts: BTreeMap<Edge, u64>,
    /// Total multiplicity (sum over `counts`).
    total: u64,
}

impl DynamicSupport {
    /// An empty support.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct live edges (the `L0` norm).
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total multiplicity (the `L1` norm).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Multiplicity of one edge (0 if absent).
    pub fn multiplicity(&self, e: Edge) -> u64 {
        self.counts.get(&e).copied().unwrap_or(0)
    }

    /// The distinct live edges in ascending order.
    pub fn live_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.counts.keys().copied()
    }

    /// Applies one token.
    ///
    /// # Errors
    /// A deletion of an edge with multiplicity 0 errors, naming the edge
    /// — the documented never-inserted-deletion policy. The support is
    /// unchanged on error.
    pub fn apply(&mut self, t: SignedEdge) -> Result<(), String> {
        match t.sign {
            Sign::Insert => {
                *self.counts.entry(t.edge).or_insert(0) += 1;
                self.total += 1;
                Ok(())
            }
            Sign::Delete => match self.counts.get_mut(&t.edge) {
                Some(c) if *c > 1 => {
                    *c -= 1;
                    self.total -= 1;
                    Ok(())
                }
                Some(_) => {
                    self.counts.remove(&t.edge);
                    self.total -= 1;
                    Ok(())
                }
                None => Err(format!(
                    "delete of edge {} which was never inserted (multiplicity 0)",
                    t.edge
                )),
            },
        }
    }

    /// Validates and applies a whole token slice **atomically**: either
    /// every token is applied, or none is and the error names the first
    /// offending deletion. Internal insert-then-delete sequences within
    /// the slice are legal (the overlay sees them in order).
    pub fn apply_all(&mut self, tokens: &[SignedEdge]) -> Result<(), String> {
        // Dry-run against an overlay of net deltas so a failed batch
        // leaves the support untouched (the service protocol promises
        // request atomicity).
        let mut overlay: BTreeMap<Edge, i64> = BTreeMap::new();
        for t in tokens {
            let delta = overlay.entry(t.edge).or_insert(0);
            if t.sign == Sign::Delete && self.multiplicity(t.edge) as i64 + *delta <= 0 {
                return Err(format!(
                    "delete of edge {} which was never inserted (multiplicity 0)",
                    t.edge
                ));
            }
            *delta += t.sign.unit();
        }
        for t in tokens {
            self.apply(*t).expect("validated above");
        }
        Ok(())
    }

    /// Canonical encoding: `"0-1:2 2-3:1"` — ascending `u-v:multiplicity`
    /// entries, space-joined, empty string for an empty support. Free of
    /// `;` and `=`, so it embeds in [`crate::state`] blobs.
    pub fn encode(&self) -> String {
        let parts: Vec<String> = self
            .counts
            .iter()
            .map(|(e, c)| format!("{}:{c}", crate::state::encode_edges([e])))
            .collect();
        parts.join(" ")
    }

    /// Decodes an [`DynamicSupport::encode`] string, validating endpoints
    /// against `n` and multiplicities against zero.
    ///
    /// # Errors
    /// Names the malformed entry.
    pub fn decode(text: &str, n: usize) -> Result<Self, String> {
        let mut support = Self::new();
        for part in text.split_whitespace() {
            let (edge, count) = part
                .split_once(':')
                .ok_or_else(|| format!("support entry {part:?} is not u-v:count"))?;
            let e = crate::state::parse_edge(edge, Some(n))
                .map_err(|e| format!("support entry {part:?}: {e}"))?;
            let count: u64 =
                count.parse().map_err(|err| format!("support entry {part:?}: {err}"))?;
            if count == 0 {
                return Err(format!("support entry {part:?} has multiplicity 0"));
            }
            if support.counts.insert(e, count).is_some() {
                return Err(format!("support entry {part:?} duplicates edge {e}"));
            }
            support.total += count;
        }
        Ok(support)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(u: u32, v: u32) -> Edge {
        Edge::new(u, v)
    }

    #[test]
    fn inserts_and_deletes_track_multiplicity() {
        let mut s = DynamicSupport::new();
        s.apply(SignedEdge::insert(e(0, 1))).unwrap();
        s.apply(SignedEdge::insert(e(0, 1))).unwrap();
        s.apply(SignedEdge::insert(e(1, 2))).unwrap();
        assert_eq!(s.multiplicity(e(0, 1)), 2);
        assert_eq!((s.distinct(), s.total()), (2, 3));
        s.apply(SignedEdge::delete(e(0, 1))).unwrap();
        assert_eq!(s.multiplicity(e(0, 1)), 1);
        s.apply(SignedEdge::delete(e(0, 1))).unwrap();
        assert_eq!(s.multiplicity(e(0, 1)), 0);
        assert_eq!(s.live_edges().collect::<Vec<_>>(), vec![e(1, 2)]);
    }

    #[test]
    fn underflow_deletion_names_the_edge() {
        let mut s = DynamicSupport::new();
        let err = s.apply(SignedEdge::delete(e(3, 7))).unwrap_err();
        assert!(err.contains("(3, 7)") && err.contains("never inserted"), "{err}");
        assert_eq!(s, DynamicSupport::new(), "failed delete must not change the support");
    }

    #[test]
    fn batch_application_is_atomic() {
        let mut s = DynamicSupport::new();
        s.apply(SignedEdge::insert(e(0, 1))).unwrap();
        let before = s.clone();
        let err = s
            .apply_all(&[
                SignedEdge::insert(e(1, 2)),
                SignedEdge::delete(e(1, 2)),
                SignedEdge::delete(e(1, 2)), // underflows after the in-batch delete
            ])
            .unwrap_err();
        assert!(err.contains("(1, 2)"), "{err}");
        assert_eq!(s, before, "failed batch must roll back entirely");
        s.apply_all(&[SignedEdge::insert(e(1, 2)), SignedEdge::delete(e(0, 1))]).unwrap();
        assert_eq!(s.live_edges().collect::<Vec<_>>(), vec![e(1, 2)]);
    }

    #[test]
    fn encoding_is_canonical_and_round_trips() {
        let mut s = DynamicSupport::new();
        for t in
            [SignedEdge::insert(e(2, 3)), SignedEdge::insert(e(0, 1)), SignedEdge::insert(e(0, 1))]
        {
            s.apply(t).unwrap();
        }
        let text = s.encode();
        assert_eq!(text, "0-1:2 2-3:1", "ascending, multiplicity-tagged");
        let back = DynamicSupport::decode(&text, 4).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.encode(), text);
        assert_eq!(DynamicSupport::decode("", 4).unwrap(), DynamicSupport::new());
        // Any whitespace separates entries, as in every token decoder.
        assert_eq!(DynamicSupport::decode(" 0-1:2\t 2-3:1\n", 4).unwrap(), s);
    }

    #[test]
    fn decode_rejects_malformed_entries() {
        for bad in ["0-1", "0-1:0", "0-1:x", "9-1:1", "0-1:1 0-1:2", "0:1:1", "3-3:1"] {
            assert!(DynamicSupport::decode(bad, 5).is_err(), "{bad:?} must not decode");
        }
    }
}
