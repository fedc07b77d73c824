//! The constructive Turán-type independent set of Lemma 2.1 / A.1.
//!
//! Every epoch of Algorithm 1 ends by finding, in the graph `(V, F)` of
//! would-be-monochromatic edges, an independent set of size
//! `≥ |U|² / (2|F| + |U|)`; those vertices commit their proposed colors.
//!
//! The paper's procedure (Lemma A.1): maintain an "uncovered" set `U`,
//! repeatedly pick `x ∈ U` minimizing `Σ_{y ∈ N[x] ∩ U} 1/(deg_{G[U]}(y)+1)`,
//! add `x` to the independent set, and remove its closed neighborhood.
//! The potential argument shows the output size is at least the Caro–Wei
//! bound `Σ_x 1/(deg(x)+1) ≥ n²/(n + 2m)`.
//!
//! The pick comes from a lazy-deletion min-heap keyed on
//! `(score bits, first position in vertices)`. Scores are positive, so
//! their bit order is their numeric order, and a tie goes to the vertex
//! listed first — the first minimum of a scan over `vertices`. Removing
//! `N[x]` changes only the scores of live vertices within two hops of
//! it; those are recomputed with the same float expression in the same
//! neighbour order, and only the changed ones are pushed again, so a
//! popped entry whose score is no longer current is skipped. The cost
//! is `O((|U| + touched·deg) · log |U|)`, where `touched` counts the
//! recomputed scores, against `O(|U|·|I|·deg)` for rescanning `U` per
//! pick.

use crate::edge::VertexId;
use crate::graph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Finds an independent set of the subgraph of `g` induced by `vertices`,
/// of size at least `|vertices|² / (2m' + |vertices|)` where `m'` is the
/// number of induced edges (deterministic, polynomial time). Members come
/// out in pick order; a vertex listed twice counts once.
pub fn turan_independent_set(g: &Graph, vertices: &[VertexId]) -> Vec<VertexId> {
    let n = g.n();
    let mut alive = vec![false; n];
    // Each vertex's first position in `vertices`: its heap tie-break.
    let mut first = vec![usize::MAX; n];
    for (i, &v) in vertices.iter().enumerate() {
        alive[v as usize] = true;
        if first[v as usize] == usize::MAX {
            first[v as usize] = i;
        }
    }
    // Degrees within the shrinking induced subgraph.
    let mut deg = vec![0usize; n];
    for &v in vertices {
        deg[v as usize] = g.neighbors(v).iter().filter(|&&y| alive[y as usize]).count();
    }
    // Σ_{y ∈ N[x]} 1/(deg(y)+1) over the live graph.
    let score = |x: VertexId, alive: &[bool], deg: &[usize]| {
        let mut score = 1.0 / (deg[x as usize] as f64 + 1.0);
        for &y in g.neighbors(x) {
            if alive[y as usize] {
                score += 1.0 / (deg[y as usize] as f64 + 1.0);
            }
        }
        score
    };
    let mut current = vec![0u64; n];
    let mut heap = BinaryHeap::with_capacity(vertices.len());
    for (i, &v) in vertices.iter().enumerate() {
        if first[v as usize] == i {
            let bits = f64::to_bits(score(v, &alive, &deg));
            current[v as usize] = bits;
            heap.push(Reverse((bits, i)));
        }
    }
    let mut independent = Vec::new();
    let mut removed = Vec::new();
    let mut touched = Vec::new();
    // Per vertex: queued for a new score, and neighbours already queued.
    const TOUCHED: u8 = 1;
    const EXPANDED: u8 = 2;
    let mut mark = vec![0u8; n];
    while let Some(Reverse((bits, i))) = heap.pop() {
        let x = vertices[i];
        if !alive[x as usize] || current[x as usize] != bits {
            continue; // stale: x left the graph or its score moved
        }
        independent.push(x);
        // Remove N[x]: mark dead, then decrement degrees of their neighbors.
        removed.clear();
        removed.push(x);
        removed.extend(g.neighbors(x).iter().copied().filter(|&y| alive[y as usize]));
        for &r in &removed {
            alive[r as usize] = false;
        }
        // Only live vertices within two hops of the removed set can get
        // a new score: each live neighbour z of it loses a term and a
        // degree, and z's neighbours see z's degree fall.
        for &r in &removed {
            for &z in g.neighbors(r) {
                if !alive[z as usize] {
                    continue;
                }
                deg[z as usize] -= 1;
                if mark[z as usize] & EXPANDED == 0 {
                    mark[z as usize] |= EXPANDED;
                    for &w in std::iter::once(&z).chain(g.neighbors(z)) {
                        if alive[w as usize] && mark[w as usize] & TOUCHED == 0 {
                            mark[w as usize] |= TOUCHED;
                            touched.push(w);
                        }
                    }
                }
            }
        }
        for w in touched.drain(..) {
            mark[w as usize] = 0;
            let bits = f64::to_bits(score(w, &alive, &deg));
            if bits != current[w as usize] {
                current[w as usize] = bits;
                heap.push(Reverse((bits, first[w as usize])));
            }
        }
    }
    independent
}

/// The Turán/Caro–Wei guarantee `⌈|V'|² / (2m' + |V'|)⌉` for the induced
/// subgraph on `vertices` — what [`turan_independent_set`] must achieve.
pub fn turan_guarantee(g: &Graph, vertices: &[VertexId]) -> usize {
    if vertices.is_empty() {
        return 0;
    }
    let mut in_set = vec![false; g.n()];
    for &v in vertices {
        in_set[v as usize] = true;
    }
    let m2: usize = vertices
        .iter()
        .map(|&v| g.neighbors(v).iter().filter(|&&y| in_set[y as usize]).count())
        .sum(); // = 2m'
    let nn = vertices.len();
    nn * nn / (m2 + nn) + usize::from(!(nn * nn).is_multiple_of(m2 + nn))
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

    /// The selection loop before the heap: rescan every remaining vertex
    /// per pick and keep the first minimum, in `vertices` order.
    fn frozen_scan(g: &Graph, vertices: &[VertexId]) -> Vec<VertexId> {
        let n = g.n();
        let mut alive = vec![false; n];
        for &v in vertices {
            alive[v as usize] = true;
        }
        let mut deg = vec![0usize; n];
        for &v in vertices {
            deg[v as usize] = g.neighbors(v).iter().filter(|&&y| alive[y as usize]).count();
        }
        let mut remaining: Vec<VertexId> = vertices.to_vec();
        let mut independent = Vec::new();
        while !remaining.is_empty() {
            let mut best: Option<(f64, VertexId)> = None;
            for &x in &remaining {
                let mut score = 1.0 / (deg[x as usize] as f64 + 1.0);
                for &y in g.neighbors(x) {
                    if alive[y as usize] {
                        score += 1.0 / (deg[y as usize] as f64 + 1.0);
                    }
                }
                match best {
                    Some((s, _)) if s <= score => {}
                    _ => best = Some((score, x)),
                }
            }
            let (_, x) = best.expect("remaining is nonempty");
            independent.push(x);
            let mut removed: Vec<VertexId> = vec![x];
            for &y in g.neighbors(x) {
                if alive[y as usize] {
                    removed.push(y);
                }
            }
            for &r in &removed {
                alive[r as usize] = false;
            }
            for &r in &removed {
                for &z in g.neighbors(r) {
                    if alive[z as usize] {
                        deg[z as usize] -= 1;
                    }
                }
            }
            remaining.retain(|&v| alive[v as usize]);
        }
        independent
    }

    /// A graph of the given kind: `G(n, p)`, a star, a clique, or a
    /// sparse graph with at most `n` random edges (the `|F| ≤ |U|` regime).
    fn law_graph(kind: u8, n: usize, rng: &mut StdRng) -> Graph {
        match kind {
            0 => {
                let p = [0.1, 0.3, 0.6][rng.gen_range(0..3)];
                generators::gnp_with_max_degree(
                    n,
                    rng.gen_range(1..n + 1),
                    p,
                    rng.gen_range(0..1 << 20),
                )
            }
            1 => generators::star(n),
            2 => generators::complete(n),
            _ => {
                let mut g = Graph::empty(n);
                for _ in 0..rng.gen_range(0..n + 1) {
                    let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                    if u != v {
                        g.add_edge(Edge::new(u, v));
                    }
                }
                g
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The heap picks exactly what the rescan picked, in the same
        /// order, on restricted, unsorted and repeated vertex lists.
        #[test]
        fn turan_matches_the_frozen_scan(
            (kind, n, seed, keep, shuffle, repeat) in
                (0u8..4, 1usize..48, any::<u64>(), 1u64..=4, any::<bool>(), any::<bool>()),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = law_graph(kind, n, &mut rng);
            // keep = 4 lists every vertex; smaller values drop some.
            let mut vertices: Vec<VertexId> =
                (0..n as u32).filter(|_| rng.gen_range(0..4) < keep).collect();
            if shuffle {
                vertices.shuffle(&mut rng);
            }
            if repeat && !vertices.is_empty() {
                let v = vertices[rng.gen_range(0..vertices.len())];
                vertices.insert(rng.gen_range(0..vertices.len() + 1), v);
            }
            prop_assert_eq!(turan_independent_set(&g, &vertices), frozen_scan(&g, &vertices));
        }
    }

    fn assert_independent(g: &Graph, set: &[VertexId]) {
        for (i, &u) in set.iter().enumerate() {
            for &v in &set[i + 1..] {
                assert!(!g.has_edge(u, v), "({u}, {v}) violates independence");
            }
        }
    }

    fn check(g: &Graph, vertices: &[VertexId]) {
        let is = turan_independent_set(g, vertices);
        assert_independent(g, &is);
        let bound = turan_guarantee(g, vertices);
        assert!(
            is.len() >= bound,
            "independent set size {} below Turán bound {bound} (n'={}, )",
            is.len(),
            vertices.len()
        );
        // All members come from the requested set.
        assert!(is.iter().all(|v| vertices.contains(v)));
    }

    #[test]
    fn empty_vertex_set() {
        let g = generators::complete(4);
        assert!(turan_independent_set(&g, &[]).is_empty());
        assert_eq!(turan_guarantee(&g, &[]), 0);
    }

    #[test]
    fn edgeless_graph_returns_everything() {
        let g = Graph::empty(6);
        let all: Vec<VertexId> = (0..6).collect();
        let is = turan_independent_set(&g, &all);
        assert_eq!(is.len(), 6);
    }

    #[test]
    fn clique_returns_single_vertex() {
        let g = generators::complete(8);
        let all: Vec<VertexId> = (0..8).collect();
        let is = turan_independent_set(&g, &all);
        assert_eq!(is.len(), 1);
        check(&g, &all);
    }

    #[test]
    fn star_picks_the_leaves() {
        let g = generators::star(9); // center 0, 8 leaves
        let all: Vec<VertexId> = (0..9).collect();
        let is = turan_independent_set(&g, &all);
        assert_eq!(is.len(), 8, "all leaves form the max independent set");
        assert!(!is.contains(&0));
    }

    #[test]
    fn cycle_meets_bound() {
        for n in [3usize, 4, 5, 8, 13] {
            let g = generators::cycle(n);
            let all: Vec<VertexId> = (0..n as u32).collect();
            check(&g, &all);
            let is = turan_independent_set(&g, &all);
            assert!(is.len() >= n / 3, "cycle IS too small: {} for C_{n}", is.len());
        }
    }

    #[test]
    fn bipartite_finds_large_side() {
        let g = generators::complete_bipartite(4, 12);
        let all: Vec<VertexId> = (0..16).collect();
        let is = turan_independent_set(&g, &all);
        assert_independent(&g, &is);
        assert!(is.len() >= 12, "should find the size-12 side, got {}", is.len());
    }

    #[test]
    fn restricted_vertex_set() {
        // Triangle 0-1-2 plus isolated-ish 3; restrict to {0, 1, 3}.
        let g = Graph::from_edges(
            4,
            [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2), Edge::new(2, 3)],
        );
        let is = turan_independent_set(&g, &[0, 1, 3]);
        assert_independent(&g, &is);
        assert!(is.len() >= 2); // {0 or 1} plus 3
        assert!(is.contains(&3));
    }

    #[test]
    fn random_graphs_meet_guarantee() {
        for seed in 0..8u64 {
            let g = generators::gnp_with_max_degree(40, 10, 0.3, seed);
            let all: Vec<VertexId> = (0..40).collect();
            check(&g, &all);
        }
    }

    /// Lemma 3.8's use: when |F| ≤ |U|, the IS has size ≥ |U|/3, so each
    /// epoch of Algorithm 1 colors ≥ a third of the uncolored vertices.
    #[test]
    fn epoch_progress_guarantee() {
        for seed in 0..5u64 {
            // Random graph with m ≤ n edges (the |F| ≤ |U| regime).
            let n = 30usize;
            let mut g = Graph::empty(n);
            let mut rng = 12345u64.wrapping_add(seed);
            let mut added = 0;
            while added < n {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = ((rng >> 33) % n as u64) as u32;
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((rng >> 33) % n as u64) as u32;
                if u != v && g.add_edge(Edge::new(u, v)) {
                    added += 1;
                }
            }
            let all: Vec<VertexId> = (0..n as u32).collect();
            let is = turan_independent_set(&g, &all);
            assert!(is.len() * 3 >= n, "with m = n, IS must be ≥ n/3: got {} of {n}", is.len());
        }
    }
}
