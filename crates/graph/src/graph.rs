//! Adjacency-list graph representation.

use crate::edge::{Edge, VertexId};

/// An undirected simple graph on vertex set `{0, …, n−1}`.
///
/// Stored as per-vertex adjacency lists. Duplicate edge insertions are
/// ignored (the streaming algorithms may legitimately present the same
/// edge twice across passes; graph construction dedups).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<VertexId>>,
    m: usize,
}

impl Graph {
    /// Creates an empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self { adj: vec![Vec::new(); n], m: 0 }
    }

    /// Builds a graph from an edge list, deduplicating.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut g = Self::empty(n);
        for e in edges {
            g.add_edge(e);
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Adds an edge if not already present. Returns whether it was new.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, e: Edge) -> bool {
        let (u, v) = e.endpoints();
        assert!((v as usize) < self.n(), "edge {e} out of range for n = {}", self.n());
        if self.adj[u as usize].contains(&v) {
            return false;
        }
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        self.m += 1;
        true
    }

    /// Removes an edge if present. Returns whether it was present.
    ///
    /// Remaining neighbors keep their relative adjacency order, so a
    /// graph built by sorted insertion stays canonically ordered across
    /// turnstile churn (the dynamic suites compare such graphs byte for
    /// byte).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn remove_edge(&mut self, e: Edge) -> bool {
        let (u, v) = e.endpoints();
        assert!((v as usize) < self.n(), "edge {e} out of range for n = {}", self.n());
        let Some(i) = self.adj[u as usize].iter().position(|&x| x == v) else {
            return false;
        };
        self.adj[u as usize].remove(i);
        let j =
            self.adj[v as usize].iter().position(|&x| x == u).expect("adjacency lists out of sync");
        self.adj[v as usize].remove(j);
        self.m -= 1;
        true
    }

    /// Removes every edge incident to the vertices in `touched`, keeping
    /// the adjacency-list allocations for reuse.
    ///
    /// This is the pooled-arena clear: when the caller has tracked the set
    /// of vertices it ever added edges to, clearing costs
    /// `O(|touched|)` instead of `O(n)` and later re-insertion pushes into
    /// already-grown `Vec`s instead of re-allocating per list.
    ///
    /// # Contract
    /// `touched` must cover **both** endpoints of every present edge
    /// (guaranteed when it is exactly the set of endpoints ever inserted
    /// since the last clear); otherwise dangling half-edges would remain.
    /// Checked exhaustively under `debug_assertions`.
    pub fn clear_incident(&mut self, touched: &[VertexId]) {
        for &v in touched {
            self.adj[v as usize].clear();
        }
        self.m = 0;
        debug_assert!(
            self.adj.iter().all(Vec::is_empty),
            "clear_incident: touched set did not cover every endpoint"
        );
    }

    /// Whether the edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.adj[u as usize].contains(&v)
    }

    /// Neighbors of `x`.
    #[inline]
    pub fn neighbors(&self, x: VertexId) -> &[VertexId] {
        &self.adj[x as usize]
    }

    /// Degree of `x`.
    #[inline]
    pub fn degree(&self, x: VertexId) -> usize {
        self.adj[x as usize].len()
    }

    /// Maximum degree `∆` (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates every edge once, in normalized form.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter()
                .filter(move |&&v| (u as VertexId) < v)
                .map(move |&v| Edge::new(u as VertexId, v))
        })
    }

    /// All vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.n() as VertexId
    }

    /// The subgraph induced by `vertex_set`, **keeping original vertex
    /// ids** (vertices outside the set become isolated).
    ///
    /// Algorithm 2 recolors induced blocks at query time; keeping ids
    /// stable avoids an index-translation layer in every caller.
    pub fn induced(&self, vertex_set: &[VertexId]) -> Graph {
        let mut in_set = vec![false; self.n()];
        for &v in vertex_set {
            in_set[v as usize] = true;
        }
        let mut g = Graph::empty(self.n());
        for e in self.edges() {
            if in_set[e.u() as usize] && in_set[e.v() as usize] {
                g.add_edge(e);
            }
        }
        g
    }

    /// Builds a graph (again with original ids) from an edge set restricted
    /// to the vertices in `vertex_set`.
    ///
    /// This is the "subgraph induced by vertex set `X` on edge set `E'`"
    /// operation that Algorithm 2's query routine performs with
    /// `E' = A_{curr−1} ∪ B` or `C_ℓ ∪ B`.
    pub fn from_edge_subset(
        n: usize,
        edges: impl IntoIterator<Item = Edge>,
        vertex_set: &[VertexId],
    ) -> Graph {
        let mut in_set = vec![false; n];
        for &v in vertex_set {
            in_set[v as usize] = true;
        }
        let mut g = Graph::empty(n);
        for e in edges {
            if in_set[e.u() as usize] && in_set[e.v() as usize] {
                g.add_edge(e);
            }
        }
        g
    }

    /// Sum of `1/(deg(x)+1)` over all vertices — the Caro–Wei bound that
    /// [`crate::turan_independent_set`] meets constructively.
    pub fn caro_wei_bound(&self) -> f64 {
        self.adj.iter().map(|nbrs| 1.0 / (nbrs.len() as f64 + 1.0)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)])
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn clear_incident_resets_to_empty_and_rebuilds_identically() {
        let mut g = triangle();
        g.clear_incident(&[0, 1, 2]);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g, Graph::empty(3), "pooled clear must be observationally empty");
        // Re-adding in the same order reproduces a fresh build exactly,
        // adjacency order included.
        g.add_edge(Edge::new(0, 1));
        g.add_edge(Edge::new(1, 2));
        g.add_edge(Edge::new(0, 2));
        assert_eq!(g, triangle());
    }

    #[test]
    fn clear_incident_tolerates_untouched_vertices_in_list() {
        let mut g = Graph::empty(6);
        g.add_edge(Edge::new(4, 5));
        g.clear_incident(&[0, 4, 5]); // 0 was never touched: harmless
        assert_eq!(g, Graph::empty(6));
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.max_degree(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        let mut es: Vec<_> = g.edges().collect();
        es.sort();
        assert_eq!(es, vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)]);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Graph::empty(4);
        assert!(g.add_edge(Edge::new(0, 1)));
        assert!(!g.add_edge(Edge::new(1, 0)));
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge() {
        Graph::empty(3).add_edge(Edge::new(0, 3));
    }

    #[test]
    fn induced_subgraph_keeps_ids() {
        let g = Graph::from_edges(
            5,
            [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3), Edge::new(3, 4), Edge::new(0, 4)],
        );
        let h = g.induced(&[0, 1, 2]);
        assert_eq!(h.n(), 5);
        assert_eq!(h.m(), 2); // (0,1) and (1,2); (0,4),(2,3),(3,4) cross the cut
        assert!(h.has_edge(0, 1));
        assert!(h.has_edge(1, 2));
        assert!(!h.has_edge(0, 4));
        assert_eq!(h.degree(4), 0);
    }

    #[test]
    fn from_edge_subset_filters_both_sides() {
        let edges = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)];
        let h = Graph::from_edge_subset(4, edges, &[1, 2]);
        assert_eq!(h.m(), 1);
        assert!(h.has_edge(1, 2));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
            assert_eq!(g.neighbors(v).len(), 2);
            assert!(!g.neighbors(v).contains(&v));
        }
    }

    #[test]
    fn caro_wei_on_triangle() {
        let g = triangle();
        let expect = 3.0 / 3.0; // 3 vertices × 1/(2+1)
        assert!((g.caro_wei_bound() - expect).abs() < 1e-12);
    }

    #[test]
    fn remove_edge_preserves_adjacency_order() {
        let mut g = Graph::from_edges(
            5,
            [Edge::new(0, 1), Edge::new(0, 2), Edge::new(0, 3), Edge::new(0, 4)],
        );
        assert!(g.remove_edge(Edge::new(0, 2)));
        assert!(!g.remove_edge(Edge::new(0, 2)), "already gone");
        assert_eq!(g.m(), 3);
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.neighbors(0), &[1, 3, 4], "surviving order intact");
        // Re-adding appends at the end, matching fresh sorted insertion
        // of the same live set only when churn is tail-only — callers
        // needing canonical order rebuild via from_edges.
        assert!(g.add_edge(Edge::new(0, 2)));
        assert_eq!(g.m(), 4);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g =
            Graph::from_edges(6, (0..6u32).flat_map(|u| (u + 1..6).map(move |v| Edge::new(u, v))));
        assert_eq!(g.m(), 15);
        assert_eq!(g.edges().count(), 15);
        let set: std::collections::HashSet<_> = g.edges().collect();
        assert_eq!(set.len(), 15);
    }
}
