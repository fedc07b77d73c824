//! BG18-style randomized one-pass `O(∆)`-coloring (non-robust).
//!
//! Bera–Ghosh (2018) opened the streaming-coloring line with a
//! semi-streaming `O(∆)`-coloring: hash every vertex into one of `∆`
//! buckets, store only intra-bucket (monochromatic) edges — in
//! expectation `m/∆ ≤ n/2` of them — and at query time color each bucket
//! with its own fresh palette by greedy first-fit on the stored subgraph.
//! Intra-bucket degrees are `O(log n / log log n)` w.h.p., so the total
//! palette is `∆ · O(log n / log log n) = Õ(∆)` (and `O(∆)` with a larger
//! bucket count).
//!
//! The paper quotes this algorithm twice: as the "quite simple
//! single-pass randomized `O(∆)`-coloring" contrasting with the hardness
//! of `(∆+1)` (§1.1), and implicitly as the structure its robust
//! algorithms harden (the `h`-sketches of Algorithm 2 are exactly this
//! bucket trick applied per epoch). Like palette sparsification it is
//! **non-robust**: the bucket hash is fixed up front, so an adaptive
//! adversary can flood one bucket.

use crate::robust::sketch::{group_by_block, EvalScratch, MonoSketch};
use sc_graph::{greedy_color_in_order, Color, Coloring, Edge, Graph};
use sc_hash::{OracleFn, SplitMix64};
use sc_stream::{
    edge_bits, CacheStats, QueryCache, SpaceMeter, StateReader, StateWriter, StreamingColorer,
};

/// The incremental per-bucket query state. The bucket hash is fixed for
/// the whole run, so the vertex partition is computed once; a new stored
/// (monochromatic) edge dirties exactly its own bucket, whose sub-coloring
/// is then recomputed in isolation and re-chained into the shared palette.
/// Harness bookkeeping — never charged to the meter.
#[derive(Debug, Clone)]
struct BucketState {
    /// Mirror of `Graph::from_edges` over the stored edges (append-only,
    /// so adjacency order matches a scratch rebuild).
    mirror: Graph,
    /// `group_by_block` over all vertices: `(block, members)`, static.
    groups: Vec<(u64, Vec<u32>)>,
    /// `group_of[v]` = index into `groups` (buckets are a partition).
    group_of: Vec<u32>,
    /// Per group: colors relative to the group's palette offset (aligned
    /// with its member list) and the group's span.
    rel: Vec<(Vec<Color>, u64)>,
    /// Assembled absolute coloring (the query answer).
    out: Coloring,
    /// All-`None` scratch coloring reused by per-group recomputes.
    scratch: Coloring,
    /// Stored edges already mirrored.
    synced: usize,
}

/// The BG18-style one-pass colorer.
#[derive(Debug, Clone)]
pub struct Bg18Colorer {
    n: usize,
    sketch: MonoSketch,
    meter: SpaceMeter,
    /// Pooled endpoint/hash-value columns for the batched ingestion path.
    scratch: EvalScratch,
    cache: QueryCache<BucketState>,
}

impl Bg18Colorer {
    /// Creates the colorer with `buckets` hash buckets (use `≈ ∆` for the
    /// `Õ(∆)`-color / `Õ(n)`-space point).
    pub fn new(n: usize, buckets: u64, seed: u64) -> Self {
        let f = OracleFn::new(SplitMix64::new(seed).fork(4).next_u64(), 0, buckets.max(1));
        Self {
            n,
            sketch: MonoSketch::new(f),
            meter: SpaceMeter::new(),
            scratch: EvalScratch::new(),
            cache: QueryCache::new(),
        }
    }

    /// Number of stored (intra-bucket) edges.
    pub fn stored_edges(&self) -> usize {
        self.sketch.len()
    }

    /// Recomputes group `gi`'s relative sub-coloring on the mirror.
    ///
    /// Stored edges are monochromatic, so a member's mirror-neighbors all
    /// lie in the same group: the group's first-fit run is independent of
    /// every other group and of the palette offset it will be chained at.
    fn recolor_group(state: &mut BucketState, gi: usize) {
        let members = &state.groups[gi].1;
        for &m in members {
            state.scratch.unset(m);
        }
        let span = greedy_color_in_order(&state.mirror, &mut state.scratch, members, 0);
        let rel: Vec<Color> =
            members.iter().map(|&m| state.scratch.get(m).expect("group member colored")).collect();
        for &m in members {
            state.scratch.unset(m); // keep the scratch all-None
        }
        state.rel[gi] = (rel, span);
    }

    /// Chains every group's relative coloring into the absolute answer,
    /// advancing the palette by `span.max(1)` per group: each bucket gets
    /// a fresh palette.
    fn assemble(state: &mut BucketState) {
        let mut offset: Color = 0;
        for (gi, (_, members)) in state.groups.iter().enumerate() {
            let (rel, span) = &state.rel[gi];
            for (&m, &c) in members.iter().zip(rel) {
                state.out.set(m, offset + c);
            }
            offset += (*span).max(1);
        }
    }

    /// Builds the bucket state from scratch: [`StreamingColorer::query`]
    /// returns its answer and a cache miss installs it.
    fn rebuild_state(&self) -> BucketState {
        let all: Vec<u32> = (0..self.n as u32).collect();
        let groups = group_by_block(&self.sketch, &all);
        let mut group_of = vec![0u32; self.n];
        for (gi, (_, members)) in groups.iter().enumerate() {
            for &m in members {
                group_of[m as usize] = gi as u32;
            }
        }
        let mut state = BucketState {
            mirror: Graph::from_edges(self.n, self.sketch.edges().iter().copied()),
            rel: vec![(Vec::new(), 0); groups.len()],
            groups,
            group_of,
            out: Coloring::empty(self.n),
            scratch: Coloring::empty(self.n),
            synced: self.sketch.len(),
        };
        for gi in 0..state.groups.len() {
            Self::recolor_group(&mut state, gi);
        }
        Self::assemble(&mut state);
        state
    }
}

impl StreamingColorer for Bg18Colorer {
    fn process(&mut self, e: Edge) {
        self.process_batch(std::slice::from_ref(&e));
    }

    fn process_batch(&mut self, edges: &[Edge]) {
        for &e in edges {
            assert!((e.v() as usize) < self.n, "edge {e} out of range");
        }
        let stored = self.sketch.offer_batch(edges, &mut self.scratch);
        self.meter.charge(stored as u64 * edge_bits(self.n));
        self.cache.advance(edges.len() as u64);
    }

    fn query(&mut self) -> Coloring {
        self.rebuild_state().out
    }

    fn query_incremental(&mut self) -> Coloring {
        if let Some(s) = self.cache.fresh() {
            return s.out.clone();
        }
        let state = match self.cache.take_for_patch() {
            Some((_, mut s)) => {
                // Every stored edge is monochromatic: it dirties exactly
                // the bucket holding both its endpoints.
                let mut dirty: Vec<usize> = Vec::new();
                for &e in &self.sketch.edges()[s.synced..] {
                    if s.mirror.add_edge(e) {
                        dirty.push(s.group_of[e.u() as usize] as usize);
                    }
                }
                s.synced = self.sketch.len();
                dirty.sort_unstable();
                dirty.dedup();
                if !dirty.is_empty() {
                    for gi in dirty {
                        Self::recolor_group(&mut s, gi);
                    }
                    // A changed span shifts every later bucket's offset.
                    Self::assemble(&mut s);
                }
                s
            }
            None => self.rebuild_state(),
        };
        let out = state.out.clone();
        self.cache.install(state);
        out
    }

    fn query_cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn peak_space_bits(&self) -> u64 {
        self.meter.peak_bits()
    }

    fn encode_state(&self) -> Result<String, String> {
        let mut w = StateWriter::new(self.name());
        w.edges("edges", self.sketch.edges());
        w.field("space_cur", self.meter.current_bits());
        w.field("space_peak", self.meter.peak_bits());
        w.field("epoch", self.cache.epoch());
        Ok(w.finish())
    }

    fn decode_state(&mut self, state: &str) -> Result<(), String> {
        let mut r = StateReader::new(state, self.name())?;
        let edges = r.edges_field("edges", self.n)?;
        let space_cur = r.u64_field("space_cur")?;
        let space_peak = r.u64_field("space_peak")?;
        let epoch = r.u64_field("epoch")?;
        r.done()?;
        // Re-offer so monochromaticity is validated, not trusted.
        for e in edges {
            if !self.sketch.offer(e) {
                return Err(format!("state: edges: edge {e} is not monochromatic"));
            }
        }
        self.meter =
            SpaceMeter::restored(space_cur, space_peak).map_err(|e| format!("state: {e}"))?;
        self.cache.restore_at_epoch(epoch);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "bg18-bucket"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar_reference::assert_matches_scalar;
    use proptest::prelude::*;
    use sc_graph::generators;
    use sc_stream::run_oblivious;

    /// The unbatched reference: one scalar [`MonoSketch::offer`] per edge.
    fn scalar_ingest(c: &mut Bg18Colorer, e: Edge) {
        assert!((e.v() as usize) < c.n, "edge {e} out of range");
        if c.sketch.offer(e) {
            c.meter.charge(edge_bits(c.n));
        }
        c.cache.advance(1);
    }

    fn observe(c: &mut Bg18Colorer) -> (Coloring, u64, usize) {
        (c.query(), c.peak_space_bits(), c.stored_edges())
    }

    /// The direct transcription of the query: first-fit each bucket on
    /// the stored subgraph, buckets ascending, each on a fresh palette.
    fn direct_query(c: &Bg18Colorer) -> Coloring {
        let mut coloring = Coloring::empty(c.n);
        let mut offset = 0u64;
        let g = Graph::from_edges(c.n, c.sketch.edges().iter().copied());
        let all: Vec<u32> = (0..c.n as u32).collect();
        for (_, members) in group_by_block(&c.sketch, &all) {
            let span = greedy_color_in_order(&g, &mut coloring, &members, offset);
            offset += span.max(1);
        }
        coloring
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn ingest_matches_the_scalar_reference(
            (n, delta, seed, chunk) in (20usize..80, 2usize..12, any::<u64>(), 1usize..20),
        ) {
            let g = generators::gnp_with_max_degree(n, delta, 0.4, seed);
            let edges = generators::shuffled_edges(&g, seed);
            let colorer = Bg18Colorer::new(n, delta as u64, seed ^ 6);
            assert_matches_scalar(colorer, &edges, chunk, scalar_ingest, observe)?;
        }

        #[test]
        fn query_matches_the_direct_transcription(
            (n, delta, seed, chunk) in (20usize..80, 2usize..12, any::<u64>(), 1usize..20),
        ) {
            let g = generators::gnp_with_max_degree(n, delta, 0.4, seed);
            let edges = generators::shuffled_edges(&g, seed);
            let mut colorer = Bg18Colorer::new(n, delta as u64, seed ^ 6);
            for (k, part) in edges.chunks(chunk).enumerate() {
                colorer.process_batch(part);
                if k % 2 == 1 {
                    colorer.query_incremental();
                }
                prop_assert_eq!(colorer.query(), direct_query(&colorer), "after chunk {}", k);
            }
        }
    }

    #[test]
    fn proper_coloring_on_random_streams() {
        for seed in 0..4u64 {
            let g = generators::gnp_with_max_degree(120, 12, 0.4, seed);
            let mut c = Bg18Colorer::new(120, 12, seed + 1);
            let out = run_oblivious(&mut c, generators::shuffled_edges(&g, seed));
            assert!(out.is_proper_total(&g), "seed {seed}");
        }
    }

    #[test]
    fn palette_is_o_delta_not_delta_squared() {
        let delta = 32usize;
        let n = 800usize;
        let g = generators::random_with_exact_max_degree(n, delta, 3);
        let mut c = Bg18Colorer::new(n, delta as u64, 9);
        let out = run_oblivious(&mut c, g.edges());
        assert!(out.is_proper_total(&g));
        let colors = out.num_distinct_colors();
        assert!(colors < 20 * delta, "{colors} colors is not Õ(∆) for ∆ = {delta}");
    }

    #[test]
    fn stores_about_m_over_delta_edges() {
        let delta = 16usize;
        let g = generators::gnp_with_max_degree(400, delta, 0.3, 5);
        let mut c = Bg18Colorer::new(400, delta as u64, 2);
        run_oblivious(&mut c, g.edges());
        let expect = g.m() / delta;
        assert!(
            c.stored_edges() < 4 * expect + 40,
            "stored {} vs expected ≈ {expect}",
            c.stored_edges()
        );
    }

    #[test]
    fn single_bucket_degenerates_to_store_everything() {
        let g = generators::complete(10);
        let mut c = Bg18Colorer::new(10, 1, 1);
        let out = run_oblivious(&mut c, g.edges());
        assert!(out.is_proper_total(&g));
        assert_eq!(c.stored_edges(), 45);
        assert_eq!(out.num_distinct_colors(), 10);
    }
}
