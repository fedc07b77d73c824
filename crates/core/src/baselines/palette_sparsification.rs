//! ACK19-style palette sparsification: the randomized, **non-robust**
//! single-pass `(∆+1)`-coloring baseline.
//!
//! Each vertex samples a list `L(v)` of `Θ(log n)` colors from `[∆+1]`;
//! the stream pass stores only *conflict edges* (`L(u) ∩ L(v) ≠ ∅`), of
//! which there are `Õ(n)` w.h.p.; at query time the conflict graph is
//! list-colored from the sampled lists offline.
//!
//! Against an **oblivious** stream this succeeds w.h.p. (Assadi–Chen–
//! Khanna 2019 prove a proper list-coloring of the conflict graph exists;
//! we complete greedily in a degeneracy order, which succeeds in practice
//! — failures are surfaced, not hidden). Against an **adaptive** adversary
//! it is provably breakable — robust algorithms need `Ω(∆²)` colors
//! CGS22 — and experiment F5 demonstrates the break: the adversary keeps
//! joining same-colored vertex pairs, draining the fixed sampled lists
//! until no proper completion exists.
//!
//! When a vertex's list is exhausted the query assigns its first sampled
//! color anyway (an *honest* failure: the returned coloring is improper
//! and the game validator catches it) and increments [`PaletteSparsification::failures`].

use sc_graph::{degeneracy_ordering, Color, Coloring, Edge, Graph};
use sc_hash::SplitMix64;
use sc_stream::{counter_bits, edge_bits, SpaceMeter, StateReader, StateWriter, StreamingColorer};

/// The palette-sparsification colorer.
#[derive(Debug, Clone)]
pub struct PaletteSparsification {
    n: usize,
    /// Sampled lists `L(v) ⊆ [∆+1]`, sorted.
    lists: Vec<Vec<Color>>,
    /// Stored conflict edges.
    conflict_edges: Vec<Edge>,
    meter: SpaceMeter,
    failures: u64,
}

impl PaletteSparsification {
    /// Creates the colorer: each vertex samples `list_size` colors from
    /// `[∆+1]` (the theory takes `list_size = Θ(log n)`).
    pub fn new(n: usize, delta: usize, list_size: usize, seed: u64) -> Self {
        let palette = delta as u64 + 1;
        let list_size = list_size.max(1).min(palette as usize);
        let mut rng = SplitMix64::new(seed);
        let lists: Vec<Vec<Color>> = (0..n)
            .map(|_| {
                let mut l = std::collections::BTreeSet::new();
                while l.len() < list_size {
                    l.insert(rng.below(palette));
                }
                l.into_iter().collect()
            })
            .collect();
        let mut meter = SpaceMeter::new();
        meter.charge(n as u64 * list_size as u64 * counter_bits(palette));
        Self { n, lists, conflict_edges: Vec::new(), meter, failures: 0 }
    }

    /// Standard theory sizing: `list_size = ⌈4 log₂ n⌉`.
    pub fn with_theory_lists(n: usize, delta: usize, seed: u64) -> Self {
        let list_size = (4.0 * (n.max(2) as f64).log2()).ceil() as usize;
        Self::new(n, delta, list_size, seed)
    }

    /// Sampled list of a vertex (diagnostics).
    pub fn list_of(&self, v: u32) -> &[Color] {
        &self.lists[v as usize]
    }

    /// Completion failures observed so far (exhausted lists at query).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Number of stored conflict edges.
    pub fn stored_edges(&self) -> usize {
        self.conflict_edges.len()
    }

    fn lists_intersect(&self, u: u32, v: u32) -> bool {
        // Both lists are sorted: linear merge.
        let (a, b) = (&self.lists[u as usize], &self.lists[v as usize]);
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
}

impl StreamingColorer for PaletteSparsification {
    fn process(&mut self, e: Edge) {
        assert!((e.v() as usize) < self.n, "edge {e} out of range");
        if self.lists_intersect(e.u(), e.v()) {
            self.conflict_edges.push(e);
            self.meter.charge(edge_bits(self.n));
        }
    }

    fn query(&mut self) -> Coloring {
        let g = Graph::from_edges(self.n, self.conflict_edges.iter().copied());
        let all: Vec<u32> = (0..self.n as u32).collect();
        // Color in reverse degeneracy order — each vertex then sees few
        // colored conflict neighbors, maximizing completion probability.
        let order: Vec<u32> = degeneracy_ordering(&g, &all).order.into_iter().rev().collect();
        let mut coloring = Coloring::empty(self.n);
        for &x in &order {
            let taken: Vec<Color> =
                g.neighbors(x).iter().filter_map(|&y| coloring.get(y)).collect();
            match self.lists[x as usize].iter().find(|c| !taken.contains(c)) {
                Some(&c) => coloring.set(x, c),
                None => {
                    // Honest failure: commit a conflicting color so the
                    // validator can see the break.
                    self.failures += 1;
                    coloring.set(x, self.lists[x as usize][0]);
                }
            }
        }
        coloring
    }

    fn peak_space_bits(&self) -> u64 {
        self.meter.peak_bits()
    }

    fn encode_state(&self) -> Result<String, String> {
        let mut w = StateWriter::new(self.name());
        w.edges("conflicts", &self.conflict_edges);
        w.field("space_cur", self.meter.current_bits());
        w.field("space_peak", self.meter.peak_bits());
        w.field("failures", self.failures);
        Ok(w.finish())
    }

    fn decode_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = StateReader::new(state, self.name())?;
        let conflicts = r.edges_field("conflicts", self.n)?;
        let space_cur = r.u64_field("space_cur")?;
        let space_peak = r.u64_field("space_peak")?;
        let failures = r.u64_field("failures")?;
        r.done()?;
        for &e in &conflicts {
            if !self.lists_intersect(e.u(), e.v()) {
                return Err(format!("state: conflicts: edge {e} is not a conflict edge"));
            }
        }
        self.conflict_edges = conflicts;
        self.meter =
            SpaceMeter::restored(space_cur, space_peak).map_err(|e| format!("state: {e}"))?;
        self.failures = failures;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "palette-sparsification"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::generators;
    use sc_stream::run_oblivious;

    #[test]
    fn oblivious_streams_succeed_whp() {
        for seed in 0..4u64 {
            let g = generators::gnp_with_max_degree(80, 12, 0.4, seed);
            let mut ps = PaletteSparsification::with_theory_lists(80, 12, seed + 5);
            let c = run_oblivious(&mut ps, generators::shuffled_edges(&g, seed));
            assert!(c.is_proper_total(&g), "seed {seed}");
            assert_eq!(ps.failures(), 0);
            assert!(c.palette_span() <= 13, "palette must be [∆+1]");
        }
    }

    #[test]
    fn clique_with_full_lists_always_works() {
        let g = generators::complete(10);
        let mut ps = PaletteSparsification::new(10, 9, 10, 3);
        let c = run_oblivious(&mut ps, g.edges());
        assert!(c.is_proper_total(&g));
        // All lists are the whole palette ⇒ every edge is a conflict edge.
        assert_eq!(ps.stored_edges(), 45);
    }

    #[test]
    fn sparsification_stores_a_fraction() {
        let g = generators::gnp_with_max_degree(200, 32, 0.4, 7);
        let mut ps = PaletteSparsification::new(200, 32, 8, 11);
        run_oblivious(&mut ps, g.edges());
        assert!(
            ps.stored_edges() < g.m(),
            "conflict graph should be sparser than G ({} vs {})",
            ps.stored_edges(),
            g.m()
        );
    }

    #[test]
    fn tiny_lists_fail_loudly_on_dense_graphs() {
        // With 1-color lists a triangle cannot be properly completed.
        let g = generators::complete(30);
        let mut ps = PaletteSparsification::new(30, 29, 1, 1);
        let c = run_oblivious(&mut ps, g.edges());
        assert!(ps.failures() > 0, "1-color lists on K_30 must fail");
        assert!(!c.is_proper_total(&g));
    }

    #[test]
    fn lists_are_sorted_distinct_and_in_palette() {
        let ps = PaletteSparsification::new(50, 15, 6, 9);
        for v in 0..50u32 {
            let l = ps.list_of(v);
            assert_eq!(l.len(), 6);
            assert!(l.windows(2).all(|w| w[0] < w[1]));
            assert!(l.iter().all(|&c| c <= 15));
        }
    }

    #[test]
    fn seed_determinism() {
        let a = PaletteSparsification::new(20, 8, 4, 42);
        let b = PaletteSparsification::new(20, 8, 4, 42);
        for v in 0..20u32 {
            assert_eq!(a.list_of(v), b.list_of(v));
        }
    }
}
