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

use crate::coloring::{Color, Coloring};
use crate::edge::VertexId;
use crate::graph::Graph;

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
    let mut forbidden: Vec<Color> = Vec::new();
    for &x in targets {
        if coloring.is_colored(x) {
            continue;
        }
        forbidden.clear();
        forbidden.extend(g.neighbors(x).iter().filter_map(|&y| coloring.get(y)));
        forbidden.sort_unstable();
        forbidden.dedup();
        // Smallest color ≥ offset not in forbidden.
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
///
/// Postcondition: `coloring` equals first-fit ascending on `g` from
/// scratch. This holds by induction on vertex id: processing the worklist
/// in ascending order means every vertex below the current one already
/// carries its final (from-scratch) color, and first-fit only reads
/// lower-neighbor colors; a vertex whose color is unchanged propagates
/// nothing, which is exactly when the scratch run would assign the same
/// downstream colors.
///
/// Returns the vertices whose color changed, in ascending order — the
/// incremental query paths patch derived outputs (e.g. Algorithm 3's pair
/// encoding) from exactly this set.
///
/// The worklist is a min-heap that tolerates duplicates: a change at the
/// current minimum `y` only enqueues neighbors `> y`, so pops form a
/// non-decreasing sequence and a duplicate resurfaces immediately after
/// its twin, where the recheck is a no-op (the color is already
/// first-fit). That keeps every operation `O(log)` on a flat buffer
/// instead of the pointer-chasing of an ordered set.
pub fn greedy_repair_ascending(
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
        let changed = greedy_repair_ascending(&g, &mut c, [2]);
        assert_eq!(changed, vec![2, 3]);
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
