//! HKNT22-style palette sparsification for `(deg+1)`-list-coloring: the
//! randomized, **non-robust** single-pass comparator for Theorem 2.
//!
//! Halldórsson–Kuhn–Nolin–Tonoyan (STOC 2022) proved that palette
//! sparsification works for *arbitrary* per-vertex lists of size
//! `deg(x)+1`: sampling `Θ(log n)` colors from each list leaves, w.h.p., a
//! proper coloring using only sampled colors, so a single pass storing
//! conflict edges suffices. The paper reproduced here obtains the same
//! problem **deterministically** in `O(log ∆ log log ∆)` passes (Theorem
//! 2); this module provides the randomized single-pass point of
//! comparison for the list-coloring experiment.
//!
//! Stream contract: the `(x, L_x)` token must precede `x`'s edges for the
//! sparsification to apply. Tokens arriving out of that order are handled
//! *conservatively* — an edge whose endpoint lists are not both known yet
//! is stored unconditionally — so correctness never depends on the
//! interleaving, only the space savings do.

use sc_graph::{degeneracy_ordering, Color, Coloring, Edge, Graph};
use sc_hash::SplitMix64;
use sc_stream::{counter_bits, edge_bits, SpaceMeter, StreamItem};

/// The HKNT22-style list-coloring sparsifier.
#[derive(Debug, Clone)]
pub struct Hknt22Colorer {
    n: usize,
    list_size: usize,
    rng: SplitMix64,
    /// Sampled sublists `S_x ⊆ L_x` (sorted), populated as lists arrive.
    samples: Vec<Option<Vec<Color>>>,
    conflict_edges: Vec<Edge>,
    meter: SpaceMeter,
    failures: u64,
}

impl Hknt22Colorer {
    /// Creates the colorer; each vertex keeps `list_size` sampled colors
    /// from its list (theory: `Θ(log n)`).
    pub fn new(n: usize, list_size: usize, seed: u64) -> Self {
        Self {
            n,
            list_size: list_size.max(1),
            rng: SplitMix64::new(seed),
            samples: vec![None; n],
            conflict_edges: Vec::new(),
            meter: SpaceMeter::new(),
            failures: 0,
        }
    }

    /// Theory sizing: `list_size = ⌈4 log₂ n⌉`.
    pub fn with_theory_lists(n: usize, seed: u64) -> Self {
        Self::new(n, (4.0 * (n.max(2) as f64).log2()).ceil() as usize, seed)
    }

    /// Processes one stream token (edge or `(x, L_x)` list).
    pub fn process_item(&mut self, item: &StreamItem) {
        match item {
            StreamItem::ColorList(x, list) => {
                assert!((*x as usize) < self.n, "vertex {x} out of range");
                let keep = self.list_size.min(list.len());
                // Reservoir-less sample: shuffle indices via seeded draws.
                let mut chosen = std::collections::BTreeSet::new();
                while chosen.len() < keep {
                    chosen.insert(list[self.rng.below(list.len() as u64) as usize]);
                }
                let sample: Vec<Color> = chosen.into_iter().collect();
                self.meter.charge(sample.len() as u64 * counter_bits(u64::MAX));
                self.samples[*x as usize] = Some(sample);
            }
            StreamItem::Edge(e) => {
                assert!((e.v() as usize) < self.n, "edge {e} out of range");
                let keep = match (&self.samples[e.u() as usize], &self.samples[e.v() as usize]) {
                    (Some(a), Some(b)) => sorted_intersect(a, b),
                    // A list is still unknown: store conservatively.
                    _ => true,
                };
                if keep {
                    self.conflict_edges.push(*e);
                    self.meter.charge(edge_bits(self.n));
                }
            }
        }
    }

    /// Colors the conflict graph from the sampled lists (reverse
    /// degeneracy order).
    pub fn query(&mut self) -> Coloring {
        let g = Graph::from_edges(self.n, self.conflict_edges.iter().copied());
        let all: Vec<u32> = (0..self.n as u32).collect();
        let order: Vec<u32> = degeneracy_ordering(&g, &all).order.into_iter().rev().collect();
        let mut coloring = Coloring::empty(self.n);
        for &x in &order {
            let Some(sample) = self.samples[x as usize].as_ref() else {
                // No list ever arrived for x: cannot color it at all.
                self.failures += 1;
                continue;
            };
            let taken: Vec<Color> =
                g.neighbors(x).iter().filter_map(|&y| coloring.get(y)).collect();
            match sample.iter().find(|c| !taken.contains(c)) {
                Some(&c) => coloring.set(x, c),
                None => {
                    self.failures += 1;
                    coloring.set(x, sample[0]); // honest failure
                }
            }
        }
        coloring
    }

    /// Completion failures observed so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Number of stored conflict edges.
    pub fn stored_edges(&self) -> usize {
        self.conflict_edges.len()
    }

    /// Self-reported peak space in bits.
    pub fn peak_space_bits(&self) -> u64 {
        self.meter.peak_bits()
    }
}

fn sorted_intersect(a: &[Color], b: &[Color]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::generators;
    use sc_stream::{StoredStream, StreamSource};

    fn run(colorer: &mut Hknt22Colorer, stream: &StoredStream) -> Coloring {
        for item in stream.pass() {
            colorer.process_item(&item);
        }
        colorer.query()
    }

    #[test]
    fn lists_first_streams_color_properly() {
        for seed in 0..4u64 {
            let g = generators::gnp_with_max_degree(120, 10, 0.3, seed);
            let lists = generators::random_deg_plus_one_lists(&g, 600, seed + 9);
            let stream = StoredStream::from_graph_with_lists(&g, &lists);
            let mut c = Hknt22Colorer::with_theory_lists(120, seed + 1);
            let out = run(&mut c, &stream);
            assert!(out.is_proper_total(&g), "seed {seed}");
            assert_eq!(c.failures(), 0);
            assert!(out.respects_lists(&lists));
        }
    }

    #[test]
    fn small_universe_lists_also_work() {
        let g = generators::random_with_exact_max_degree(200, 12, 3);
        let lists = generators::random_deg_plus_one_lists(&g, 26, 5);
        let stream = StoredStream::from_graph_with_lists(&g, &lists);
        let mut c = Hknt22Colorer::with_theory_lists(200, 8);
        let out = run(&mut c, &stream);
        assert!(out.is_proper_total(&g));
        assert!(out.respects_lists(&lists));
    }

    #[test]
    fn edges_before_lists_are_stored_conservatively() {
        let g = generators::complete(8);
        let lists = generators::random_deg_plus_one_lists(&g, 30, 2);
        // Edges first, lists after: every edge must be stored.
        let mut items: Vec<StreamItem> = g.edges().map(StreamItem::Edge).collect();
        items.extend(
            lists.iter().enumerate().map(|(x, l)| StreamItem::ColorList(x as u32, l.clone())),
        );
        let mut c = Hknt22Colorer::new(8, 4, 1);
        let out = run(&mut c, &StoredStream::new(items));
        assert_eq!(c.stored_edges(), g.m(), "all edges pre-list must be stored");
        assert!(out.is_proper_total(&g));
        assert!(out.respects_lists(&lists));
    }

    #[test]
    fn missing_list_is_a_loud_failure() {
        // Path 0–1–2 where only vertices 0 and 1 get lists.
        let items = vec![
            StreamItem::ColorList(0, vec![1, 2]),
            StreamItem::ColorList(1, vec![2, 3]),
            StreamItem::Edge(Edge::new(0, 1)),
            StreamItem::Edge(Edge::new(1, 2)),
        ];
        let mut c = Hknt22Colorer::new(3, 4, 1);
        let out = run(&mut c, &StoredStream::new(items));
        assert!(c.failures() > 0);
        assert!(!out.is_colored(2));
    }

    #[test]
    fn sampling_shrinks_storage_on_large_universes() {
        let g = generators::gnp_with_max_degree(300, 16, 0.4, 4);
        let lists = generators::random_deg_plus_one_lists(&g, 100_000, 6);
        let stream = StoredStream::from_graph_with_lists(&g, &lists);
        let mut c = Hknt22Colorer::new(300, 6, 2);
        run(&mut c, &stream);
        assert!(
            c.stored_edges() * 2 < g.m(),
            "disjoint samples over a huge universe should drop most edges \
             ({} of {})",
            c.stored_edges(),
            g.m()
        );
    }

    #[test]
    fn tiny_samples_on_cliques_fail_loudly() {
        let g = generators::complete(20);
        let lists: Vec<Vec<Color>> = (0..20).map(|_| (0..20u64).collect()).collect();
        let stream = StoredStream::from_graph_with_lists(&g, &lists);
        let mut c = Hknt22Colorer::new(20, 1, 3);
        let out = run(&mut c, &stream);
        assert!(c.failures() > 0, "1-color samples on K_20 must clash");
        assert!(!out.is_proper_total(&g));
    }
}
