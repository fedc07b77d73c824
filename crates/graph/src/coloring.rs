//! Partial and total vertex colorings.
//!
//! The paper (§2, "Colorings") defines a *partial coloring* as a pair
//! `(U, χ)` with `χ(x) = ⊥ ⇔ x ∈ U`; this module represents `χ` as
//! `Vec<Option<Color>>` so `U` is implicit. Properness and list-compliance
//! checks are the ground truth every test and experiment validates against.

use crate::edge::VertexId;
use crate::graph::Graph;

/// A color. The paper's palettes are `[∆+1]`, `[∆²]`, `[∆³]`, …; `u64`
/// comfortably covers products like `(∆+1)·∆²`.
pub type Color = u64;

/// A (possibly partial) coloring of vertices `{0, …, n−1}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<Option<Color>>,
}

impl Coloring {
    /// The all-uncolored coloring on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self { colors: vec![None; n] }
    }

    /// Builds from explicit assignments.
    pub fn from_vec(colors: Vec<Option<Color>>) -> Self {
        Self { colors }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.colors.len()
    }

    /// The color of `x`, or `None` if uncolored.
    #[inline]
    pub fn get(&self, x: VertexId) -> Option<Color> {
        self.colors[x as usize]
    }

    /// Assigns color `c` to `x` (overwriting any previous assignment).
    #[inline]
    pub fn set(&mut self, x: VertexId, c: Color) {
        self.colors[x as usize] = Some(c);
    }

    /// Removes the color of `x`.
    #[inline]
    pub fn unset(&mut self, x: VertexId) {
        self.colors[x as usize] = None;
    }

    /// Uncolors every vertex, keeping the allocation — the pooled-arena
    /// counterpart of building a fresh [`Coloring::empty`].
    #[inline]
    pub fn reset(&mut self) {
        self.colors.fill(None);
    }

    /// Whether `x` is colored.
    #[inline]
    pub fn is_colored(&self, x: VertexId) -> bool {
        self.colors[x as usize].is_some()
    }

    /// The uncolored set `U`.
    pub fn uncolored(&self) -> Vec<VertexId> {
        self.colors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| i as VertexId)
            .collect()
    }

    /// Number of uncolored vertices `|U|`.
    pub fn num_uncolored(&self) -> usize {
        self.colors.iter().filter(|c| c.is_none()).count()
    }

    /// Whether every vertex is colored.
    pub fn is_total(&self) -> bool {
        self.colors.iter().all(Option::is_some)
    }

    /// Number of **distinct** colors used.
    ///
    /// Marks a bitmap up to the largest color when that color is below
    /// `64·n` (one word per vertex), the case for every `[∆+1]`-style
    /// palette; sorts above that, where Algorithms 2 and 3's pair encodings
    /// reach large `u64`s. The arm is chosen from the largest color itself,
    /// so a color of `u64::MAX` takes the sort without overflowing.
    pub fn num_distinct_colors(&self) -> usize {
        match self.colors.iter().flatten().copied().max() {
            None => return 0,
            Some(max) if max < 64 * self.n() as Color => {
                let mut words = vec![0u64; (max / 64 + 1) as usize];
                for &c in self.colors.iter().flatten() {
                    words[(c / 64) as usize] |= 1 << (c % 64);
                }
                return words.iter().map(|w| w.count_ones() as usize).sum();
            }
            Some(_) => {}
        }
        let mut used: Vec<Color> = self.colors.iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        used.len()
    }

    /// The largest color value used plus one (palette-size upper bound), or
    /// 0 if nothing is colored.
    pub fn palette_span(&self) -> Color {
        self.colors.iter().flatten().copied().max().map_or(0, |c| c + 1)
    }

    /// Properness on colored vertices: no edge has two equal-colored,
    /// colored endpoints (the paper's definition of a proper *partial*
    /// coloring).
    pub fn is_proper_partial(&self, g: &Graph) -> bool {
        self.monochromatic_edge(g).is_none()
    }

    /// Properness as a *total* coloring: total and proper.
    pub fn is_proper_total(&self, g: &Graph) -> bool {
        self.is_total() && self.is_proper_partial(g)
    }

    /// Finds a monochromatic edge if one exists (diagnostic for tests).
    pub fn monochromatic_edge(&self, g: &Graph) -> Option<crate::edge::Edge> {
        g.edges().find(|e| {
            matches!(
                (self.get(e.u()), self.get(e.v())),
                (Some(a), Some(b)) if a == b
            )
        })
    }

    /// Checks list-compliance: every colored vertex's color belongs to its
    /// list. `lists[x]` is `L_x`.
    pub fn respects_lists(&self, lists: &[Vec<Color>]) -> bool {
        self.colors.iter().enumerate().all(|(x, c)| match c {
            None => true,
            Some(c) => lists[x].contains(c),
        })
    }

    /// Extends `self` by the assignments of `other` (which must not clash
    /// with existing assignments on any vertex).
    ///
    /// # Panics
    /// Panics if a vertex is colored in both (conflicting commits indicate
    /// an algorithm bug — the robust algorithms color disjoint blocks).
    pub fn extend_disjoint(&mut self, other: &Coloring) {
        assert_eq!(self.n(), other.n());
        for x in 0..self.n() {
            if let Some(c) = other.colors[x] {
                assert!(self.colors[x].is_none(), "vertex {x} colored twice (extend_disjoint)");
                self.colors[x] = Some(c);
            }
        }
    }

    /// Iterator over `(vertex, color)` pairs for colored vertices.
    pub fn assignments(&self) -> impl Iterator<Item = (VertexId, Color)> + '_ {
        self.colors.iter().enumerate().filter_map(|(x, c)| c.map(|c| (x as VertexId, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    fn path3() -> Graph {
        Graph::from_edges(3, [Edge::new(0, 1), Edge::new(1, 2)])
    }

    #[test]
    fn reset_equals_fresh_empty() {
        let mut c = Coloring::empty(4);
        c.set(0, 3);
        c.set(2, 1);
        c.reset();
        assert_eq!(c, Coloring::empty(4));
    }

    #[test]
    fn empty_is_trivially_proper_partial() {
        let g = path3();
        let c = Coloring::empty(3);
        assert!(c.is_proper_partial(&g));
        assert!(!c.is_proper_total(&g));
        assert_eq!(c.num_uncolored(), 3);
        assert_eq!(c.uncolored(), vec![0, 1, 2]);
    }

    #[test]
    fn set_get_unset() {
        let mut c = Coloring::empty(4);
        c.set(2, 7);
        assert_eq!(c.get(2), Some(7));
        assert!(c.is_colored(2));
        c.unset(2);
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn properness_detection() {
        let g = path3();
        let mut c = Coloring::empty(3);
        c.set(0, 1);
        c.set(1, 1);
        assert!(!c.is_proper_partial(&g));
        assert_eq!(c.monochromatic_edge(&g), Some(Edge::new(0, 1)));
        c.set(1, 2);
        assert!(c.is_proper_partial(&g));
        c.set(2, 1); // 0 and 2 are not adjacent
        assert!(c.is_proper_total(&g));
    }

    #[test]
    fn distinct_colors_and_span() {
        let mut c = Coloring::empty(5);
        c.set(0, 3);
        c.set(1, 3);
        c.set(2, 9);
        assert_eq!(c.num_distinct_colors(), 2);
        assert_eq!(c.palette_span(), 10);
        assert_eq!(Coloring::empty(2).palette_span(), 0);
    }

    /// The bitmap count against the sort it replaces, on both sides of the
    /// `64·n` span cap.
    #[test]
    fn distinct_count_matches_the_sorted_count() {
        let sorted = |c: &Coloring| {
            let mut used: Vec<Color> = c.colors.iter().flatten().copied().collect();
            used.sort_unstable();
            used.dedup();
            used.len()
        };
        let n = 4;
        let cases: [&[Option<Color>]; 8] = [
            &[None; 4],
            &[Some(2), None, Some(2), None],
            &[Some(0), Some(0), Some(0), Some(0)],
            &[Some(63), Some(64), Some(0), Some(255)],
            &[Some(256), Some(3), None, Some(3)],
            &[Some(u64::MAX - 1), Some(1 << 40), Some(1 << 40), None],
            &[Some(u64::MAX), Some(0), None, Some(u64::MAX)],
            &[None, None, None, Some(u64::MAX)],
        ];
        for colors in cases {
            let c = Coloring::from_vec(colors.to_vec());
            assert_eq!(c.num_distinct_colors(), sorted(&c), "{colors:?}");
        }
        // Largest color 255 < 64·n takes the bitmap, 256 the sort.
        assert_eq!(Coloring::from_vec(cases[3].to_vec()).palette_span(), 64 * n);
        assert_eq!(Coloring::from_vec(cases[4].to_vec()).palette_span(), 64 * n + 1);
        assert_eq!(Coloring::empty(0).num_distinct_colors(), 0);
    }

    #[test]
    fn list_compliance() {
        let mut c = Coloring::empty(2);
        let lists = vec![vec![1, 2], vec![3]];
        c.set(0, 2);
        assert!(c.respects_lists(&lists));
        c.set(1, 4);
        assert!(!c.respects_lists(&lists));
    }

    #[test]
    fn extend_disjoint_merges() {
        let mut a = Coloring::empty(3);
        a.set(0, 1);
        let mut b = Coloring::empty(3);
        b.set(2, 5);
        a.extend_disjoint(&b);
        assert_eq!(a.get(0), Some(1));
        assert_eq!(a.get(2), Some(5));
        assert_eq!(a.get(1), None);
    }

    #[test]
    #[should_panic(expected = "colored twice")]
    fn extend_disjoint_rejects_overlap() {
        let mut a = Coloring::empty(2);
        a.set(0, 1);
        let mut b = Coloring::empty(2);
        b.set(0, 2);
        a.extend_disjoint(&b);
    }

    #[test]
    fn assignments_iterator() {
        let mut c = Coloring::empty(4);
        c.set(1, 10);
        c.set(3, 20);
        let pairs: Vec<_> = c.assignments().collect();
        assert_eq!(pairs, vec![(1, 10), (3, 20)]);
    }
}
