//! The store-everything fallback for small `∆` (paper §4, preamble).
//!
//! "We also assume that `∆ = Ω(log² n)`; if `∆` is smaller, we can store
//! the entire graph in semi-streaming space and then color it optimally."
//! A graph of maximum degree `∆` has at most `n∆/2` edges, so for
//! `∆ = O(log² n)` storing them all costs `O(n log² n · log n)` bits —
//! semi-streaming — and greedy gives the optimal-palette `(∆+1)`-coloring.
//! Trivially robust (deterministic given the stream; no randomness for the
//! adversary to learn).
//!
//! [`auto_robust_colorer`] packages the paper's complete recipe: this
//! fallback when [`RobustParams::store_all_fallback`] holds, Algorithm 2
//! otherwise.

use crate::robust::alg2::RobustColorer;
use crate::robust::params::RobustParams;
use sc_graph::{greedy_complete, greedy_repair_ascending, Coloring, Edge, Graph};
use sc_stream::{
    edge_bits, CacheStats, QueryCache, SpaceMeter, StateReader, StateWriter, StreamingColorer,
};

/// The incremental-query artifact: a mirror of the stored graph plus the
/// first-fit coloring it produced, repairable edge by edge.
///
/// Harness bookkeeping, not algorithm state — it is never charged to the
/// [`SpaceMeter`] (queries may rebuild it from the stored edges at any
/// time).
#[derive(Debug, Clone)]
struct StoreAllArtifact {
    /// `Graph::from_edges` over the stored prefix, maintained by
    /// appending — identical adjacency order to a scratch rebuild.
    mirror: Graph,
    /// First-fit-ascending coloring of `mirror` (the query answer).
    chi: Coloring,
    /// Stored edges already reflected in `mirror`.
    synced: usize,
}

/// Stores every edge; queries greedily `(∆+1)`-color the stored graph.
#[derive(Debug, Clone)]
pub struct StoreAllColorer {
    n: usize,
    edges: Vec<Edge>,
    meter: SpaceMeter,
    cache: QueryCache<StoreAllArtifact>,
}

impl StoreAllColorer {
    /// Creates the colorer on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self { n, edges: Vec::new(), meter: SpaceMeter::new(), cache: QueryCache::new() }
    }

    /// Number of stored edges.
    pub fn stored_edges(&self) -> usize {
        self.edges.len()
    }

    /// The from-scratch answer: first-fit over a fresh mirror of the
    /// stored edges. [`StreamingColorer::query`] returns its coloring and
    /// a cache miss installs it.
    fn rebuild(&self) -> StoreAllArtifact {
        let mirror = Graph::from_edges(self.n, self.edges.iter().copied());
        let mut chi = Coloring::empty(self.n);
        greedy_complete(&mirror, &mut chi);
        StoreAllArtifact { mirror, chi, synced: self.edges.len() }
    }

    /// Brings `artifact` up to date with the stored edges, repairing the
    /// coloring only around the insertions. Returns the number of
    /// vertices the repair recolored (the dirty-frontier size).
    fn patch(&self, artifact: &mut StoreAllArtifact) -> u64 {
        let mut seeds = Vec::new();
        for &e in &self.edges[artifact.synced..] {
            if artifact.mirror.add_edge(e) {
                // Only the higher endpoint's first-fit choice can change.
                seeds.push(e.u().max(e.v()));
            }
        }
        artifact.synced = self.edges.len();
        greedy_repair_ascending(&artifact.mirror, &mut artifact.chi, seeds).len() as u64
    }
}

impl StreamingColorer for StoreAllColorer {
    fn process(&mut self, e: Edge) {
        self.process_batch(std::slice::from_ref(&e));
    }

    fn process_batch(&mut self, edges: &[Edge]) {
        for &e in edges {
            assert!((e.v() as usize) < self.n, "edge {e} out of range");
        }
        self.edges.extend_from_slice(edges);
        self.meter.charge(edges.len() as u64 * edge_bits(self.n));
        self.cache.advance(edges.len() as u64);
    }

    fn query(&mut self) -> Coloring {
        self.rebuild().chi
    }

    fn query_incremental(&mut self) -> Coloring {
        if let Some(a) = self.cache.fresh() {
            return a.chi.clone();
        }
        let artifact = match self.cache.take_for_patch() {
            Some((_, mut a)) => {
                let recolored = self.patch(&mut a);
                self.cache.note_patched(recolored);
                a
            }
            None => self.rebuild(),
        };
        let out = artifact.chi.clone();
        self.cache.install(artifact);
        out
    }

    fn query_cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn peak_space_bits(&self) -> u64 {
        self.meter.peak_bits()
    }

    fn encode_state(&self) -> Result<String, String> {
        let mut w = StateWriter::new();
        w.field("algo", self.name());
        w.edges("edges", &self.edges);
        w.field("space_cur", self.meter.current_bits());
        w.field("space_peak", self.meter.peak_bits());
        w.field("epoch", self.cache.epoch());
        Ok(w.finish())
    }

    fn decode_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = StateReader::new(state);
        let algo = r.expect("algo")?;
        if algo != self.name() {
            return Err(format!("state: algo {algo:?} is not {:?}", self.name()));
        }
        let edges = r.edges_field("edges", self.n)?;
        let space_cur = r.u64_field("space_cur")?;
        let space_peak = r.u64_field("space_peak")?;
        let epoch = r.u64_field("epoch")?;
        r.done()?;
        self.edges = edges;
        self.meter =
            SpaceMeter::restored(space_cur, space_peak).map_err(|e| format!("state: {e}"))?;
        self.cache.restore_at_epoch(epoch);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "store-all"
    }
}

/// Either side of the paper's small-`∆` dichotomy.
pub enum AutoRobust {
    /// `∆ < log² n`: store everything, color optimally.
    StoreAll(StoreAllColorer),
    /// Otherwise: Algorithm 2.
    Alg2(Box<RobustColorer>),
}

/// The complete Theorem 3 recipe: picks the fallback exactly when the
/// paper's `∆ = Ω(log² n)` assumption fails.
pub fn auto_robust_colorer(n: usize, delta: usize, seed: u64) -> AutoRobust {
    let params = RobustParams::theorem3(n, delta);
    if params.store_all_fallback() {
        AutoRobust::StoreAll(StoreAllColorer::new(n))
    } else {
        AutoRobust::Alg2(Box::new(RobustColorer::with_params(params, seed)))
    }
}

impl StreamingColorer for AutoRobust {
    fn process(&mut self, e: Edge) {
        match self {
            AutoRobust::StoreAll(c) => c.process(e),
            AutoRobust::Alg2(c) => c.process(e),
        }
    }

    fn process_batch(&mut self, edges: &[Edge]) {
        match self {
            AutoRobust::StoreAll(c) => c.process_batch(edges),
            AutoRobust::Alg2(c) => c.process_batch(edges),
        }
    }

    fn query(&mut self) -> Coloring {
        match self {
            AutoRobust::StoreAll(c) => c.query(),
            AutoRobust::Alg2(c) => c.query(),
        }
    }

    fn query_incremental(&mut self) -> Coloring {
        match self {
            AutoRobust::StoreAll(c) => c.query_incremental(),
            AutoRobust::Alg2(c) => c.query_incremental(),
        }
    }

    fn query_cache_stats(&self) -> Option<CacheStats> {
        match self {
            AutoRobust::StoreAll(c) => c.query_cache_stats(),
            AutoRobust::Alg2(c) => c.query_cache_stats(),
        }
    }

    fn peak_space_bits(&self) -> u64 {
        match self {
            AutoRobust::StoreAll(c) => c.peak_space_bits(),
            AutoRobust::Alg2(c) => c.peak_space_bits(),
        }
    }

    // State codecs delegate: the variant is a pure function of (n, ∆),
    // so a rebuilt colorer picks the same side and the inner `algo` tag
    // validates the match.
    fn encode_state(&self) -> Result<String, String> {
        match self {
            AutoRobust::StoreAll(c) => c.encode_state(),
            AutoRobust::Alg2(c) => c.encode_state(),
        }
    }

    fn decode_state(&mut self, state: &str) -> Result<(), String> {
        match self {
            AutoRobust::StoreAll(c) => c.decode_state(state),
            AutoRobust::Alg2(c) => c.decode_state(state),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AutoRobust::StoreAll(_) => "auto(store-all)",
            AutoRobust::Alg2(_) => "auto(alg2)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::generators;
    use sc_stream::run_oblivious;

    #[test]
    fn store_all_gives_optimal_palette() {
        let g = generators::gnp_with_max_degree(100, 5, 0.3, 1);
        let mut c = StoreAllColorer::new(100);
        let out = run_oblivious(&mut c, g.edges());
        assert!(out.is_proper_total(&g));
        assert!(out.palette_span() <= g.max_degree() as u64 + 1);
        assert_eq!(c.stored_edges(), g.m());
    }

    #[test]
    fn auto_picks_store_all_for_tiny_delta() {
        // n = 4096 ⇒ log²n = 144; ∆ = 8 falls below.
        let auto = auto_robust_colorer(4096, 8, 1);
        assert_eq!(auto.name(), "auto(store-all)");
    }

    #[test]
    fn auto_picks_alg2_for_large_delta() {
        let auto = auto_robust_colorer(256, 100, 1);
        assert_eq!(auto.name(), "auto(alg2)");
    }

    #[test]
    fn auto_colorer_works_both_sides() {
        for (n, delta) in [(300usize, 4usize), (120, 64)] {
            let g = generators::gnp_with_max_degree(n, delta, 0.5, 2);
            let mut auto = auto_robust_colorer(n, delta, 3);
            let out = run_oblivious(&mut auto, generators::shuffled_edges(&g, 2));
            assert!(out.is_proper_total(&g), "n={n} ∆={delta}");
        }
    }

    #[test]
    fn incremental_queries_match_scratch_and_reuse_the_cache() {
        let g = generators::gnp_with_max_degree(60, 7, 0.5, 9);
        let edges: Vec<_> = generators::shuffled_edges(&g, 9);
        let mut inc = StoreAllColorer::new(60);
        let mut scr = StoreAllColorer::new(60);
        for (i, &e) in edges.iter().enumerate() {
            inc.process(e);
            scr.process(e);
            assert_eq!(inc.query_incremental(), scr.query(), "prefix {}", i + 1);
        }
        // Back-to-back query with no new edges: a pure hit.
        let again = inc.query_incremental();
        assert_eq!(again, scr.query());
        let stats = inc.query_cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.patches, edges.len() as u64 - 1);
        // Caching never shows up in the space report.
        assert_eq!(inc.peak_space_bits(), scr.peak_space_bits());
    }

    #[test]
    fn store_all_is_robust_under_attack() {
        // Deterministic ⇒ robust: mid-stream queries always proper.
        let g = generators::gnp_with_max_degree(50, 6, 0.5, 3);
        let mut c = StoreAllColorer::new(50);
        let mut prefix = Graph::empty(50);
        for e in g.edges() {
            c.process(e);
            prefix.add_edge(e);
            assert!(c.query().is_proper_total(&prefix));
        }
    }
}
