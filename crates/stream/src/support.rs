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
//!
//! The multiplicities live in a std [`HashMap`] with its default keyed
//! [`RandomState`](std::collections::hash_map::RandomState): clients
//! choose the edges, so an unkeyed hasher would let one line force
//! collisions. Nothing observable depends on the map's order — the
//! outputs that list edges ([`DynamicSupport::live_edges`],
//! [`DynamicSupport::encode`]) sort them.

use crate::token::{Sign, SignedEdge};
use sc_graph::Edge;
use std::collections::hash_map::{Entry, HashMap};

/// The live edge multiset of a turnstile stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynamicSupport {
    /// Multiplicity per edge; entries are strictly positive (an edge
    /// deleted down to zero leaves the map, keeping the encoding
    /// canonical).
    counts: HashMap<Edge, u64>,
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
        self.sorted().into_iter().map(|(e, _)| e)
    }

    /// The `(edge, multiplicity)` entries, ascending by edge.
    fn sorted(&self) -> Vec<(Edge, u64)> {
        let mut entries: Vec<(Edge, u64)> = self.counts.iter().map(|(&e, &c)| (e, c)).collect();
        entries.sort_unstable();
        entries
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
            Sign::Delete => match self.counts.entry(t.edge) {
                Entry::Occupied(mut live) => {
                    if *live.get() > 1 {
                        *live.get_mut() -= 1;
                    } else {
                        live.remove();
                    }
                    self.total -= 1;
                    Ok(())
                }
                Entry::Vacant(_) => Err(format!(
                    "delete of edge {} which was never inserted (multiplicity 0)",
                    t.edge
                )),
            },
        }
    }

    /// Applies a whole token slice **atomically**: either every token
    /// is applied, or none is and the error names the first offending
    /// deletion. Internal insert-then-delete sequences within the slice
    /// are legal (the tokens apply in order).
    pub fn apply_all(&mut self, tokens: &[SignedEdge]) -> Result<(), String> {
        for (applied, t) in tokens.iter().enumerate() {
            if let Err(e) = self.apply(*t) {
                // Undo the applied prefix, newest first: each token's
                // inverse is legal in the state right after it applied.
                for t in tokens[..applied].iter().rev() {
                    let inverse = match t.sign {
                        Sign::Insert => SignedEdge::delete(t.edge),
                        Sign::Delete => SignedEdge::insert(t.edge),
                    };
                    self.apply(inverse).expect("reverting an applied token");
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Canonical encoding: `"0-1:2 2-3:1"` — ascending `u-v:multiplicity`
    /// entries, space-joined, empty string for an empty support. Free of
    /// `;` and `=`, so it embeds in [`crate::state`] blobs.
    pub fn encode(&self) -> String {
        let parts: Vec<String> = self
            .sorted()
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

        // A batch that deletes a live edge down to zero (it leaves the
        // map) and then underflows must put that edge back.
        s.apply_all(&[SignedEdge::insert(e(0, 1)), SignedEdge::insert(e(1, 2))]).unwrap();
        let (before, text, total) = (s.clone(), s.encode(), s.total());
        let err = s
            .apply_all(&[
                SignedEdge::insert(e(2, 3)),
                SignedEdge::delete(e(0, 1)),
                SignedEdge::delete(e(1, 2)),
                SignedEdge::delete(e(1, 2)),
                SignedEdge::delete(e(1, 2)), // underflows: (1, 2) had 2
            ])
            .unwrap_err();
        assert!(err.contains("(1, 2)") && err.contains("never inserted"), "{err}");
        assert_eq!(s, before, "failed batch must restore the edges it zeroed");
        assert_eq!((s.encode(), s.total()), (text, total));
        assert_eq!(s.multiplicity(e(0, 1)), 1);
        assert_eq!(s.multiplicity(e(2, 3)), 0);

        // Listings ascend whatever order the batch inserted in.
        let edges: Vec<Edge> = (0..40u32).flat_map(|u| (u + 1..40).map(move |v| e(u, v))).collect();
        let mut expected = edges.clone();
        expected.sort_unstable();
        let text: Vec<String> =
            expected.iter().map(|&x| format!("{}:1", crate::state::encode_edges([x]))).collect();
        for order in [0u64, 1, 2] {
            let mut shuffled = edges.clone();
            // Reverse, stride and interleaved orders.
            match order {
                0 => shuffled.reverse(),
                1 => shuffled.sort_by_key(|x| (x.v(), std::cmp::Reverse(x.u()))),
                _ => shuffled.sort_by_key(|x| (x.u() * 7 + x.v() * 13) % 31),
            }
            let mut s = DynamicSupport::new();
            s.apply_all(&shuffled.iter().map(|&x| SignedEdge::insert(x)).collect::<Vec<_>>())
                .unwrap();
            assert_eq!(s.live_edges().collect::<Vec<_>>(), expected, "order {order}");
            assert_eq!(s.encode(), text.join(" "), "order {order}");
        }
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
