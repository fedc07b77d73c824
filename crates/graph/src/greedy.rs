//! Greedy (first-fit) coloring subroutines.
//!
//! These are the offline completion steps the streaming algorithms invoke:
//!
//! * Algorithm 1, line 7: "greedily complete χ to a proper coloring" once
//!   all edges incident to the residual uncolored set are in memory.
//! * Algorithm 2, line 22: "(degree+1)-color subgraph induced by …".
//! * Algorithm 3, line 16: "greedy coloring of `D ∪ B`".
//!
//! First-fit over any vertex order uses at most `deg(x) + 1` colors for
//! each `x` restricted to its visible neighborhood — the combinatorial fact
//! all the paper's palette bounds bottom out in.
//!
//! The same fact bounds the kernel: a vertex with `k` neighbours gets its
//! first-fit color in `offset..=offset + k`, so only neighbour colors in
//! that window of `k + 1` slots matter. `first_fit` marks them in a reused
//! bitmap of `k / 64 + 1` words and takes the first unmarked slot; every
//! greedy coloring and repair here goes through it.

use crate::coloring::{Color, Coloring};
use crate::edge::VertexId;
use crate::graph::Graph;

/// The smallest color `≥ offset` not in `colors`, where `colors` yields
/// at most `k` items (one per neighbour). Only colors in the window
/// `offset..=offset + k` matter, since `k` colors cannot fill `k + 1`
/// slots: they are marked in `words`, a bitmap of `k / 64 + 1` words
/// reused across calls.
#[inline]
fn first_fit(
    colors: impl Iterator<Item = Color>,
    k: usize,
    offset: Color,
    words: &mut Vec<u64>,
) -> Color {
    words.clear();
    words.resize(k / 64 + 1, 0);
    for c in colors {
        // Colors below `offset` wrap to huge slots and drop out.
        let d = c.wrapping_sub(offset);
        if d <= k as u64 {
            words[(d / 64) as usize] |= 1 << (d % 64);
        }
    }
    let (i, w) = words
        .iter()
        .enumerate()
        .find(|&(_, &w)| w != u64::MAX)
        .expect("k colors leave a free slot in the k + 1 window");
    offset + 64 * i as u64 + u64::from((!w).trailing_zeros())
}

/// First-fit colors `targets` (in the given order) in graph `g`, extending
/// the existing partial `coloring` and never recoloring already-colored
/// vertices. Colors are drawn from `offset..` (fresh-palette support for
/// the per-block recoloring of Algorithm 2).
///
/// Returns the number of distinct colors the *new* assignments used, i.e.
/// `max(assigned − offset) + 1`, or 0 if `targets` is empty.
pub fn greedy_color_in_order(
    g: &Graph,
    coloring: &mut Coloring,
    targets: &[VertexId],
    offset: Color,
) -> u64 {
    let mut span = 0u64;
    let mut words = Vec::new();
    for &x in targets {
        if coloring.is_colored(x) {
            continue;
        }
        let nbrs = g.neighbors(x);
        let c =
            first_fit(nbrs.iter().filter_map(|&y| coloring.get(y)), nbrs.len(), offset, &mut words);
        coloring.set(x, c);
        span = span.max(c - offset + 1);
    }
    span
}

/// Greedily completes a partial coloring to a total proper coloring of `g`,
/// visiting uncolored vertices in id order with palette starting at 0.
///
/// This is exactly Algorithm 1's final step; for a graph of maximum degree
/// `∆` and palette `[∆+1]` it always succeeds within the palette because
/// each vertex sees at most `∆` forbidden colors.
pub fn greedy_complete(g: &Graph, coloring: &mut Coloring) {
    let uncolored = coloring.uncolored();
    greedy_color_in_order(g, coloring, &uncolored, 0);
}

/// Repairs a first-fit-ascending coloring after edge insertions and
/// removals, touching only the vertices the changes can actually affect.
///
/// Precondition: `coloring` equals the result of first-fit coloring all
/// vertices of some graph `g₀` in ascending id order with palette `0..`
/// (i.e. [`greedy_complete`] on an empty partial), and `g` is `g₀` with
/// some edges added and some removed. `seeds` names the vertices whose
/// *lower* neighborhood changed — for an added or removed edge `{u, v}`
/// with `u < v` that is `v` alone (`u`'s first-fit color never looks at
/// higher neighbors). The color is recomputed from `g`'s lower
/// neighbours, so a removal is covered exactly like an addition.
/// Duplicate seeds are harmless.
///
/// Postcondition: `coloring` equals first-fit ascending on `g` from
/// scratch. This holds by induction on vertex id: the sweep visits dirty
/// vertices in ascending order, so every vertex below the current one
/// already carries its final (from-scratch) color, and first-fit only
/// reads lower-neighbor colors; a vertex whose color is unchanged
/// propagates nothing, which is exactly when the scratch run would assign
/// the same downstream colors.
///
/// Returns the vertices whose color changed, in ascending order — the
/// incremental query paths patch derived outputs (e.g. Algorithm 3's pair
/// encoding) from exactly this set.
///
/// The sweep marks the seeds in a dirty bitmap and walks vertex ids
/// upward from the smallest seed. A dirty vertex gets its first-fit color
/// from its lower neighbours; on a change it marks its higher neighbours
/// dirty. Marks only ever land above the vertex being visited, so each
/// vertex is visited at most once per call, in ascending order, and a
/// count of pending marks ends the walk at the last dirty vertex instead
/// of at `n` — a one-seed repair that changes nothing costs one visit.
pub fn greedy_repair_ascending(
    g: &Graph,
    coloring: &mut Coloring,
    seeds: impl IntoIterator<Item = VertexId>,
) -> Vec<VertexId> {
    let mut dirty = vec![0u64; g.n().div_ceil(64)];
    let mut pending = 0usize;
    let mut first = usize::MAX;
    for s in seeds {
        let (w, bit) = (s as usize / 64, 1u64 << (s % 64));
        if dirty[w] & bit == 0 {
            dirty[w] |= bit;
            pending += 1;
            first = first.min(w);
        }
    }
    let mut changed = Vec::new();
    let mut words = Vec::new();
    let mut w = first;
    while pending > 0 {
        // Marks made while visiting this word land above the visited bit,
        // so taking the lowest set bit each time stays ascending.
        while dirty[w] != 0 {
            let x = (w * 64) as VertexId + dirty[w].trailing_zeros();
            dirty[w] &= dirty[w] - 1;
            pending -= 1;
            let nbrs = g.neighbors(x);
            let lower = nbrs.iter().filter(|&&y| y < x).filter_map(|&y| coloring.get(y));
            let c = first_fit(lower, nbrs.len(), 0, &mut words);
            if coloring.get(x) != Some(c) {
                coloring.set(x, c);
                changed.push(x);
                for &y in nbrs.iter().filter(|&&y| y > x) {
                    let (wy, bit) = (y as usize / 64, 1u64 << (y % 64));
                    if dirty[wy] & bit == 0 {
                        dirty[wy] |= bit;
                        pending += 1;
                    }
                }
            }
        }
        w += 1;
    }
    changed
}

/// Greedy **list** coloring: colors `targets` in order, choosing for each
/// the first color in its list not used by a colored neighbor.
///
/// Returns `Err(x)` for the first vertex whose list is exhausted. Always
/// succeeds when `|L_x| ≥ deg(x) + 1` within the subgraph visible to the
/// order (the `(deg+1)`-list-coloring setting of Theorem 2).
pub fn greedy_list_color(
    g: &Graph,
    coloring: &mut Coloring,
    targets: &[VertexId],
    lists: &[Vec<Color>],
) -> Result<(), VertexId> {
    for &x in targets {
        if coloring.is_colored(x) {
            continue;
        }
        let taken: Vec<Color> = g.neighbors(x).iter().filter_map(|&y| coloring.get(y)).collect();
        match lists[x as usize].iter().find(|c| !taken.contains(c)) {
            Some(&c) => coloring.set(x, c),
            None => return Err(x),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;
    use crate::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// `greedy_color_in_order` before the bounded mex: collect, sort and
    /// dedup every neighbour color, then scan for the first gap.
    fn frozen_sort(g: &Graph, coloring: &mut Coloring, targets: &[VertexId], offset: Color) -> u64 {
        let mut span = 0u64;
        let mut forbidden: Vec<Color> = Vec::new();
        for &x in targets {
            if coloring.is_colored(x) {
                continue;
            }
            forbidden.clear();
            forbidden.extend(g.neighbors(x).iter().filter_map(|&y| coloring.get(y)));
            forbidden.sort_unstable();
            forbidden.dedup();
            let mut c = offset;
            for &f in &forbidden {
                if f < c {
                    continue;
                }
                if f == c {
                    c += 1;
                } else {
                    break;
                }
            }
            coloring.set(x, c);
            span = span.max(c - offset + 1);
        }
        span
    }

    /// `greedy_repair_ascending` before the dirty sweep: a min-heap
    /// worklist that takes duplicates and skips a pop equal to the last.
    fn frozen_heap(
        g: &Graph,
        coloring: &mut Coloring,
        seeds: impl IntoIterator<Item = VertexId>,
    ) -> Vec<VertexId> {
        use std::cmp::Reverse;
        let mut worklist: std::collections::BinaryHeap<Reverse<VertexId>> =
            seeds.into_iter().map(Reverse).collect();
        let mut changed = Vec::new();
        let mut forbidden: Vec<Color> = Vec::new();
        let mut last: Option<VertexId> = None;
        while let Some(Reverse(x)) = worklist.pop() {
            if last == Some(x) {
                continue;
            }
            last = Some(x);
            forbidden.clear();
            forbidden
                .extend(g.neighbors(x).iter().filter(|&&y| y < x).filter_map(|&y| coloring.get(y)));
            forbidden.sort_unstable();
            forbidden.dedup();
            let mut c = 0;
            for &f in &forbidden {
                if f < c {
                    continue;
                }
                if f == c {
                    c += 1;
                } else {
                    break;
                }
            }
            if coloring.get(x) != Some(c) {
                coloring.set(x, c);
                changed.push(x);
                worklist.extend(g.neighbors(x).iter().copied().filter(|&y| y > x).map(Reverse));
            }
        }
        changed
    }

    /// A Δ-capped `G(n, p)` whose degrees reach past 64 when `n` and `p`
    /// allow, so the mex bitmap spans more than one word.
    fn law_graph(n: usize, rng: &mut StdRng) -> Graph {
        let p = [0.05, 0.2, 0.5, 0.9][rng.gen_range(0..4)];
        generators::gnp_with_max_degree(n, rng.gen_range(1..n + 1), p, rng.gen_range(0..1 << 20))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bounded mex colors exactly what the sort did and returns
        /// the same span: offsets above 0, precolored vertices whose
        /// colors fall below the offset, inside the window and above
        /// `offset + k`, a window full but for one hole, repeated and
        /// precolored targets.
        #[test]
        fn greedy_color_in_order_matches_the_frozen_sort(
            (n, seed, offset_kind, precolor) in (1usize..300, any::<u64>(), 0u8..3, 0u64..4),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = law_graph(n, &mut rng);
            let offset: Color = match offset_kind {
                0 => 0,
                1 => rng.gen_range(1..200),
                _ => 1 << 40,
            };
            let mut c = Coloring::empty(n);
            for x in 0..n as VertexId {
                if rng.gen_range(0..4) < precolor {
                    let k = g.degree(x) as Color;
                    let color = match rng.gen_range(0u8..3) {
                        0 => rng.gen_range(0..offset + 1),
                        1 => offset + rng.gen_range(0..k + 1),
                        _ => offset + k + 1 + rng.gen_range(0..100),
                    };
                    c.set(x, color);
                }
            }
            let mut targets: Vec<VertexId> = (0..n as u32).filter(|_| rng.gen_bool(0.8)).collect();
            targets.shuffle(&mut rng);
            if !targets.is_empty() {
                let v = targets[rng.gen_range(0..targets.len())];
                targets.insert(rng.gen_range(0..targets.len() + 1), v);
            }
            // One vertex, colored first, sees its whole window but one
            // random hole, whatever its degree: the mex must find the hole.
            let x = rng.gen_range(0..n as VertexId);
            let mut window: Vec<Color> = (offset..=offset + g.degree(x) as Color).collect();
            window.remove(rng.gen_range(0..window.len()));
            window.shuffle(&mut rng);
            for (&y, &color) in g.neighbors(x).iter().zip(&window) {
                c.set(y, color);
            }
            c.unset(x);
            targets.insert(0, x);
            let mut frozen = c.clone();
            let span = greedy_color_in_order(&g, &mut c, &targets, offset);
            prop_assert_eq!(span, frozen_sort(&g, &mut frozen, &targets, offset));
            prop_assert_eq!(c, frozen);
        }

        /// The sweep leaves the from-scratch coloring and returns exactly
        /// the ascending list of recolored vertices — what the heap
        /// returned — over batches of insertions and removals seeded by
        /// the higher endpoint, with duplicate seeds, empty batches and a
        /// spare seed at `n − 1`.
        #[test]
        fn repair_matches_scratch_and_the_frozen_heap(
            (n, seed, batches) in (1usize..120, any::<u64>(), 1usize..5),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = law_graph(n, &mut rng);
            let mut c = Coloring::empty(n);
            greedy_complete(&g, &mut c);
            for _ in 0..batches {
                let mut seeds: Vec<VertexId> = Vec::new();
                for _ in 0..rng.gen_range(0..2 * n) {
                    let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                    if u == v {
                        continue;
                    }
                    let e = Edge::new(u, v);
                    let moved = if g.has_edge(u, v) { g.remove_edge(e) } else { g.add_edge(e) };
                    if moved {
                        seeds.push(u.max(v));
                    }
                }
                if !seeds.is_empty() && rng.gen_bool(0.5) {
                    seeds.push(seeds[rng.gen_range(0..seeds.len())]);
                }
                if rng.gen_bool(0.3) {
                    seeds.push(n as VertexId - 1);
                }
                seeds.shuffle(&mut rng);
                let before = c.clone();
                let mut frozen = c.clone();
                let changed = greedy_repair_ascending(&g, &mut c, seeds.iter().copied());
                let mut scratch = Coloring::empty(n);
                greedy_complete(&g, &mut scratch);
                prop_assert_eq!(&c, &scratch);
                let moved: Vec<VertexId> =
                    (0..n as u32).filter(|&x| c.get(x) != before.get(x)).collect();
                prop_assert_eq!(&changed, &moved);
                prop_assert_eq!(changed, frozen_heap(&g, &mut frozen, seeds));
            }
        }
    }

    #[test]
    fn a_full_window_takes_its_top_slot() {
        // x = 0 sees k neighbours holding offset..offset+k exactly once
        // each (shuffled), plus nothing else: first fit is offset + k.
        for k in [1usize, 5, 63, 64, 65, 127, 128, 130] {
            for offset in [0, 7, 1 << 40] {
                let g = generators::star(k + 1);
                let mut c = Coloring::empty(k + 1);
                let mut colors: Vec<Color> = (offset..offset + k as Color).collect();
                colors.shuffle(&mut StdRng::seed_from_u64(k as u64));
                for (y, &color) in (1..=k as VertexId).zip(&colors) {
                    c.set(y, color);
                }
                let mut frozen = c.clone();
                let span = greedy_color_in_order(&g, &mut c, &[0], offset);
                assert_eq!(c.get(0), Some(offset + k as Color), "k = {k}, offset = {offset}");
                assert_eq!(span, k as u64 + 1);
                assert_eq!(span, frozen_sort(&g, &mut frozen, &[0], offset));
            }
        }
    }

    #[test]
    fn greedy_uses_at_most_delta_plus_one_colors() {
        let g = generators::complete(6);
        let mut c = Coloring::empty(6);
        greedy_complete(&g, &mut c);
        assert!(c.is_proper_total(&g));
        assert_eq!(c.num_distinct_colors(), 6); // K6 needs exactly 6
        assert!(c.palette_span() <= g.max_degree() as u64 + 1);
    }

    #[test]
    fn greedy_respects_existing_partial() {
        let g = Graph::from_edges(3, [Edge::new(0, 1), Edge::new(1, 2)]);
        let mut c = Coloring::empty(3);
        c.set(1, 0);
        greedy_complete(&g, &mut c);
        assert!(c.is_proper_total(&g));
        assert_eq!(c.get(1), Some(0), "pre-colored vertex must not change");
        assert_eq!(c.get(0), Some(1));
        assert_eq!(c.get(2), Some(1));
    }

    #[test]
    fn fresh_palette_offset() {
        let g = generators::complete(4);
        let mut c = Coloring::empty(4);
        let span = greedy_color_in_order(&g, &mut c, &[0, 1, 2, 3], 100);
        assert!(c.is_proper_total(&g));
        assert_eq!(span, 4);
        for x in 0..4u32 {
            assert!(c.get(x).unwrap() >= 100);
        }
    }

    #[test]
    fn greedy_on_empty_targets() {
        let g = generators::complete(3);
        let mut c = Coloring::empty(3);
        assert_eq!(greedy_color_in_order(&g, &mut c, &[], 0), 0);
        assert_eq!(c.num_uncolored(), 3);
    }

    #[test]
    fn greedy_first_fit_skips_gaps() {
        // Neighbor colors {0, 2}: first fit should pick 1.
        let g = Graph::from_edges(3, [Edge::new(0, 2), Edge::new(1, 2)]);
        let mut c = Coloring::empty(3);
        c.set(0, 0);
        c.set(1, 2);
        greedy_color_in_order(&g, &mut c, &[2], 0);
        assert_eq!(c.get(2), Some(1));
    }

    #[test]
    fn repair_matches_scratch_after_every_insertion() {
        // Insert a random graph's edges one at a time; after each, repair
        // must equal a from-scratch first-fit-ascending run.
        let full = generators::gnp_with_max_degree(40, 7, 0.4, 12);
        let edges: Vec<Edge> = generators::shuffled_edges(&full, 12);
        let mut g = Graph::empty(40);
        let mut c = Coloring::empty(40);
        greedy_complete(&g, &mut c); // all isolated: everything color 0
        for &e in &edges {
            g.add_edge(e);
            let changed = greedy_repair_ascending(&g, &mut c, [e.u().max(e.v())]);
            let mut scratch = Coloring::empty(40);
            greedy_complete(&g, &mut scratch);
            assert_eq!(c, scratch, "repair diverged after inserting {e}");
            // Changed vertices come back ascending and deduplicated.
            assert!(changed.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn repair_with_no_seeds_is_a_no_op() {
        let g = generators::complete(5);
        let mut c = Coloring::empty(5);
        greedy_complete(&g, &mut c);
        let before = c.clone();
        assert!(greedy_repair_ascending(&g, &mut c, []).is_empty());
        assert_eq!(c, before);
    }

    #[test]
    fn repair_cascades_through_higher_neighbors() {
        // Path 0–1–2–3 colored 0,1,0,1; adding {0,2} flips 2 and then 3.
        let mut g = Graph::from_edges(4, [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]);
        let mut c = Coloring::empty(4);
        greedy_complete(&g, &mut c);
        assert_eq!(c.get(2), Some(0));
        g.add_edge(Edge::new(0, 2));
        let changed = greedy_repair_ascending(&g, &mut c, [2]);
        assert_eq!(changed, vec![2, 3]);
        let mut scratch = Coloring::empty(4);
        greedy_complete(&g, &mut scratch);
        assert_eq!(c, scratch);
        assert_eq!(c.get(2), Some(2));
        assert_eq!(c.get(3), Some(0));
    }

    #[test]
    fn repair_after_a_removal_matches_scratch() {
        // The cascade above run backwards: removing {0,2} from the path
        // plus chord, seeded with the higher endpoint 2, restores 0,1,0,1.
        let mut g = Graph::from_edges(
            4,
            [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3), Edge::new(0, 2)],
        );
        let mut c = Coloring::empty(4);
        greedy_complete(&g, &mut c);
        assert_eq!((c.get(2), c.get(3)), (Some(2), Some(0)));
        g.remove_edge(Edge::new(0, 2));
        let mut frozen = c.clone();
        let changed = greedy_repair_ascending(&g, &mut c, [2]);
        assert_eq!(changed, vec![2, 3]);
        assert_eq!(changed, frozen_heap(&g, &mut frozen, [2]));
        assert_eq!(c.get(2), Some(0), "the removal lowers 2's color");
        let mut scratch = Coloring::empty(4);
        greedy_complete(&g, &mut scratch);
        assert_eq!(c, scratch);
    }

    #[test]
    fn list_coloring_success() {
        let g = Graph::from_edges(3, [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]);
        let lists = vec![vec![1, 2, 3], vec![1, 2, 3], vec![1, 2, 3]];
        let mut c = Coloring::empty(3);
        greedy_list_color(&g, &mut c, &[0, 1, 2], &lists).unwrap();
        assert!(c.is_proper_total(&g));
        assert!(c.respects_lists(&lists));
    }

    #[test]
    fn list_coloring_failure_reports_vertex() {
        let g = Graph::from_edges(2, [Edge::new(0, 1)]);
        let lists = vec![vec![5], vec![5]];
        let mut c = Coloring::empty(2);
        let err = greedy_list_color(&g, &mut c, &[0, 1], &lists).unwrap_err();
        assert_eq!(err, 1);
    }

    #[test]
    fn deg_plus_one_lists_always_suffice() {
        let g = generators::gnp_with_max_degree(40, 8, 0.3, 99);
        let lists: Vec<Vec<Color>> =
            (0..40u32).map(|x| (0..=g.degree(x) as Color).map(|c| c * 3 + 17).collect()).collect();
        let order: Vec<VertexId> = (0..40).collect();
        let mut c = Coloring::empty(40);
        greedy_list_color(&g, &mut c, &order, &lists).unwrap();
        assert!(c.is_proper_total(&g));
        assert!(c.respects_lists(&lists));
    }
}
