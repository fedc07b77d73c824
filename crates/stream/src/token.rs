//! Stream tokens.
//!
//! Theorem 2's input is "a stream consisting of, in any order, the edges of
//! `G` and `(x, L_x)` pairs" — so a token is either an edge or a color
//! list. Plain edge streams (Theorems 1, 3, 4) simply never contain
//! [`StreamItem::ColorList`] tokens.
//!
//! The **dynamic (turnstile) model** — the natural adversarial playground
//! of the robust-coloring line (Chakrabarti–Ghosh–Stoeckl 2021) — adds
//! *signed* edge tokens: an edge may be deleted again after insertion.
//! [`SignedEdge`] is that `(edge, sign)` pair. It is the one token of the
//! single-pass engine and the adversarial game: an insert-only stream is
//! a signed stream without deletions. [`StreamItem`] is the token of the
//! stored multi-pass sources, which are insert-only.

use sc_graph::{Color, Edge, VertexId};

/// The direction of a signed edge token: `+e` or `−e`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sign {
    /// The edge enters the graph (multiplicity `+1`).
    Insert,
    /// The edge leaves the graph (multiplicity `−1`). Deleting an edge
    /// whose multiplicity is zero is a *stream error*: the engine
    /// rejects it loudly, naming the edge (see
    /// [`DynamicSupport`](crate::DynamicSupport)).
    Delete,
}

impl Sign {
    /// `+1` for insert, `−1` for delete (the turnstile increment).
    #[inline]
    pub fn unit(self) -> i64 {
        match self {
            Sign::Insert => 1,
            Sign::Delete => -1,
        }
    }

    /// The wire glyph: `"+"` / `"-"`.
    #[inline]
    pub fn glyph(self) -> char {
        match self {
            Sign::Insert => '+',
            Sign::Delete => '-',
        }
    }
}

impl std::fmt::Display for Sign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.glyph())
    }
}

/// One turnstile token: an edge together with its [`Sign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignedEdge {
    /// The (normalized) edge.
    pub edge: Edge,
    /// Insert or delete.
    pub sign: Sign,
}

impl SignedEdge {
    /// An insertion token.
    #[inline]
    pub fn insert(edge: Edge) -> Self {
        Self { edge, sign: Sign::Insert }
    }

    /// A deletion token.
    #[inline]
    pub fn delete(edge: Edge) -> Self {
        Self { edge, sign: Sign::Delete }
    }

    /// Whether this token is an insertion.
    #[inline]
    pub fn is_insert(&self) -> bool {
        self.sign == Sign::Insert
    }
}

impl std::fmt::Display for SignedEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.sign, self.edge)
    }
}

impl From<Edge> for SignedEdge {
    #[inline]
    fn from(e: Edge) -> Self {
        SignedEdge::insert(e)
    }
}

/// One token of a (possibly list-annotated) insert-only graph stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamItem {
    /// An edge insertion.
    Edge(Edge),
    /// The allowed-color list `L_x` for vertex `x`.
    ColorList(VertexId, Vec<Color>),
}

impl StreamItem {
    /// The edge, if this token is one.
    #[inline]
    pub fn as_edge(&self) -> Option<Edge> {
        match self {
            StreamItem::Edge(e) => Some(*e),
            StreamItem::ColorList(..) => None,
        }
    }

    /// The `(x, L_x)` pair, if this token is one.
    #[inline]
    pub fn as_color_list(&self) -> Option<(VertexId, &[Color])> {
        match self {
            StreamItem::Edge(_) => None,
            StreamItem::ColorList(x, l) => Some((*x, l)),
        }
    }
}

impl From<Edge> for StreamItem {
    #[inline]
    fn from(e: Edge) -> Self {
        StreamItem::Edge(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let e = StreamItem::Edge(Edge::new(1, 2));
        assert_eq!(e.as_edge(), Some(Edge::new(1, 2)));
        assert!(e.as_color_list().is_none());

        let l = StreamItem::ColorList(3, vec![1, 4, 9]);
        assert!(l.as_edge().is_none());
        let (x, colors) = l.as_color_list().unwrap();
        assert_eq!(x, 3);
        assert_eq!(colors, &[1, 4, 9]);
    }

    #[test]
    fn from_edge() {
        let item: StreamItem = Edge::new(5, 2).into();
        assert_eq!(item, StreamItem::Edge(Edge::new(2, 5)));
    }

    #[test]
    fn sign_units_and_display() {
        assert_eq!(Sign::Insert.unit(), 1);
        assert_eq!(Sign::Delete.unit(), -1);
        assert_eq!(SignedEdge::insert(Edge::new(0, 1)).to_string(), "+(0, 1)");
        assert_eq!(SignedEdge::delete(Edge::new(0, 1)).to_string(), "-(0, 1)");
    }
}
